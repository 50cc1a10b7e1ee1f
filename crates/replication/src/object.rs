//! The object model: what a persistent replicated object is made of.
//!
//! An object "is an instance of some class" whose operations "have access to
//! the instance variables and can thus modify the internal state" (§2.2).
//! Server nodes need "access to the executable binary of the code for the
//! object's methods" (§3.1) — in this reproduction, a [`TypeRegistry`] entry
//! mapping the stored [`TypeTag`] to a decode function.
//!
//! Three ready-made classes exercise the system in examples, tests, and
//! benchmarks: [`Counter`], [`KvMap`], and [`Account`]. All use explicit
//! little-endian byte encodings so that snapshots are deterministic and
//! self-contained (no serialization framework needed on the wire).

use groupview_sim::{Bytes, IdMap, WireEncoder};
use groupview_store::TypeTag;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Outcome of invoking an operation on an object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvokeResult {
    /// Reply bytes returned to the client (reference-counted: cloning the
    /// result — into dedup caches, checkpoint entries, reply frames —
    /// shares the buffer).
    pub reply: Bytes,
    /// Whether the operation modified the object's state. Drives the
    /// paper's read optimisation: unmodified objects skip the commit-time
    /// state copy entirely.
    pub mutated: bool,
}

impl InvokeResult {
    /// A read-only result.
    pub fn read(reply: impl Into<Bytes>) -> Self {
        InvokeResult {
            reply: reply.into(),
            mutated: false,
        }
    }

    /// A state-changing result.
    pub fn wrote(reply: impl Into<Bytes>) -> Self {
        InvokeResult {
            reply: reply.into(),
            mutated: true,
        }
    }
}

/// A persistent replicated object's in-memory behaviour.
///
/// Implementations must be deterministic: active replication executes every
/// operation at every replica and relies on identical results.
///
/// The trait is **encoder-aware**: replies and snapshots are written through
/// the caller's pooled [`WireEncoder`] and returned as frozen [`Bytes`], so
/// the object boundary allocates nothing in steady state (see
/// `docs/OBJECTS.md` for the encoder-ownership rules). Implementations must
/// not hold on to the encoder beyond the call.
pub trait ReplicaObject {
    /// The stable tag identifying this class in object stores.
    fn type_tag(&self) -> TypeTag;

    /// Executes one encoded operation, writing the reply into a frame
    /// borrowed from `enc`. Malformed operations must be harmless reads.
    fn invoke(&mut self, op: &[u8], enc: &WireEncoder) -> InvokeResult;

    /// Encodes the full state for checkpointing / commit processing into a
    /// frame borrowed from `enc`.
    fn snapshot(&self, enc: &WireEncoder) -> Bytes;

    /// Replaces this object's state with a decoded snapshot, **in place**
    /// (undo restores and checkpoint installs reuse the live instance
    /// instead of decoding into a fresh box). Decoding is lenient, like the
    /// class decoders: malformed bytes restore a well-defined default.
    fn restore(&mut self, data: &[u8]);

    /// Clones the object behind the trait.
    fn boxed_clone(&self) -> Box<dyn ReplicaObject>;
}

/// Decodes stored bytes back into a live object.
pub type DecodeFn = fn(&[u8]) -> Box<dyn ReplicaObject>;

/// Registry mapping [`TypeTag`]s to decoders — the analogue of server nodes
/// holding the class code.
#[derive(Clone, Default)]
pub struct TypeRegistry {
    inner: Rc<RefCell<IdMap<TypeTag, DecodeFn>>>,
}

impl fmt::Debug for TypeRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TypeRegistry")
            .field("types", &self.inner.borrow().len())
            .finish()
    }
}

impl TypeRegistry {
    /// Creates a registry preloaded with the built-in classes
    /// ([`Counter`], [`KvMap`], [`Account`]).
    pub fn with_builtins() -> Self {
        let reg = TypeRegistry::default();
        reg.register(Counter::TYPE_TAG, Counter::decode_boxed);
        reg.register(KvMap::TYPE_TAG, KvMap::decode_boxed);
        reg.register(Account::TYPE_TAG, Account::decode_boxed);
        reg
    }

    /// Registers (or replaces) a decoder for `tag`.
    pub fn register(&self, tag: TypeTag, decode: DecodeFn) {
        self.inner.borrow_mut().insert(tag, decode);
    }

    /// Decodes `data` as an instance of `tag`, if the class is known.
    pub fn decode(&self, tag: TypeTag, data: &[u8]) -> Option<Box<dyn ReplicaObject>> {
        self.inner.borrow().get(&tag).map(|f| f(data))
    }

    /// Whether `tag` has a registered decoder.
    pub fn knows(&self, tag: TypeTag) -> bool {
        self.inner.borrow().contains_key(&tag)
    }
}

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// A signed counter — the simplest useful persistent object.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Counter {
    value: i64,
}

/// Operations on a [`Counter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterOp {
    /// Read the current value (read-only).
    Get,
    /// Add a delta (mutating); replies with the new value.
    Add(i64),
}

impl CounterOp {
    /// Encodes the operation.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            CounterOp::Get => vec![0],
            CounterOp::Add(d) => {
                let mut v = vec![1];
                v.extend_from_slice(&d.to_le_bytes());
                v
            }
        }
    }

    /// Decodes an operation; `None` for malformed input.
    pub fn decode(bytes: &[u8]) -> Option<CounterOp> {
        match bytes.first()? {
            0 => Some(CounterOp::Get),
            1 => Some(CounterOp::Add(i64::from_le_bytes(
                bytes.get(1..9)?.try_into().ok()?,
            ))),
            _ => None,
        }
    }

    /// Decodes a counter reply.
    pub fn decode_reply(reply: &[u8]) -> Option<i64> {
        Some(i64::from_le_bytes(reply.get(..8)?.try_into().ok()?))
    }
}

impl Counter {
    /// The class tag of counters.
    pub const TYPE_TAG: TypeTag = TypeTag::new(1);

    /// Creates a counter with an initial value.
    pub fn new(value: i64) -> Self {
        Counter { value }
    }

    /// The current value.
    pub fn value(&self) -> i64 {
        self.value
    }

    /// Decodes a snapshot.
    pub fn decode(data: &[u8]) -> Counter {
        let value = data
            .get(..8)
            .and_then(|b| b.try_into().ok())
            .map(i64::from_le_bytes)
            .unwrap_or(0);
        Counter { value }
    }

    fn decode_boxed(data: &[u8]) -> Box<dyn ReplicaObject> {
        Box::new(Counter::decode(data))
    }
}

impl ReplicaObject for Counter {
    fn type_tag(&self) -> TypeTag {
        Self::TYPE_TAG
    }

    fn invoke(&mut self, op: &[u8], enc: &WireEncoder) -> InvokeResult {
        match CounterOp::decode(op) {
            Some(CounterOp::Get) => InvokeResult::read(
                enc.encode_with(|b| b.extend_from_slice(&self.value.to_le_bytes())),
            ),
            Some(CounterOp::Add(d)) => {
                self.value += d;
                InvokeResult::wrote(
                    enc.encode_with(|b| b.extend_from_slice(&self.value.to_le_bytes())),
                )
            }
            None => InvokeResult::read(Bytes::new()),
        }
    }

    fn snapshot(&self, enc: &WireEncoder) -> Bytes {
        enc.encode_with(|b| b.extend_from_slice(&self.value.to_le_bytes()))
    }

    fn restore(&mut self, data: &[u8]) {
        *self = Counter::decode(data);
    }

    fn boxed_clone(&self) -> Box<dyn ReplicaObject> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// KvMap
// ---------------------------------------------------------------------------

/// A small ordered key-value map (string keys and values).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KvMap {
    entries: BTreeMap<String, String>,
}

/// Operations on a [`KvMap`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvOp {
    /// Read a key (read-only); replies with the value or empty.
    Get(String),
    /// Write a key (mutating); replies with the previous value or empty.
    Put(String, String),
    /// Delete a key (mutating); replies with the removed value or empty.
    Delete(String),
    /// Number of entries (read-only); replies with a LE u64.
    Len,
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn get_str(bytes: &[u8], pos: &mut usize) -> Option<String> {
    let len = u32::from_le_bytes(bytes.get(*pos..*pos + 4)?.try_into().ok()?) as usize;
    *pos += 4;
    let s = std::str::from_utf8(bytes.get(*pos..*pos + len)?).ok()?;
    *pos += len;
    Some(s.to_string())
}

impl KvOp {
    /// Encodes the operation.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::new();
        match self {
            KvOp::Get(k) => {
                v.push(0);
                put_str(&mut v, k);
            }
            KvOp::Put(k, val) => {
                v.push(1);
                put_str(&mut v, k);
                put_str(&mut v, val);
            }
            KvOp::Delete(k) => {
                v.push(2);
                put_str(&mut v, k);
            }
            KvOp::Len => v.push(3),
        }
        v
    }

    /// Decodes an operation; `None` for malformed input.
    pub fn decode(bytes: &[u8]) -> Option<KvOp> {
        let mut pos = 1;
        match bytes.first()? {
            0 => Some(KvOp::Get(get_str(bytes, &mut pos)?)),
            1 => Some(KvOp::Put(
                get_str(bytes, &mut pos)?,
                get_str(bytes, &mut pos)?,
            )),
            2 => Some(KvOp::Delete(get_str(bytes, &mut pos)?)),
            3 => Some(KvOp::Len),
            _ => None,
        }
    }
}

impl KvMap {
    /// The class tag of key-value maps.
    pub const TYPE_TAG: TypeTag = TypeTag::new(2);

    /// Creates an empty map.
    pub fn new() -> Self {
        KvMap::default()
    }

    /// Reads a key directly (for assertions in tests).
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.get(key).map(String::as_str)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Decodes a snapshot.
    pub fn decode(data: &[u8]) -> KvMap {
        let mut entries = BTreeMap::new();
        let mut pos = 0;
        let Some(count) = data
            .get(..8)
            .and_then(|b| b.try_into().ok())
            .map(u64::from_le_bytes)
        else {
            return KvMap::default();
        };
        pos += 8;
        for _ in 0..count {
            let Some(k) = get_str(data, &mut pos) else {
                break;
            };
            let Some(v) = get_str(data, &mut pos) else {
                break;
            };
            entries.insert(k, v);
        }
        KvMap { entries }
    }

    fn decode_boxed(data: &[u8]) -> Box<dyn ReplicaObject> {
        Box::new(KvMap::decode(data))
    }
}

impl ReplicaObject for KvMap {
    fn type_tag(&self) -> TypeTag {
        Self::TYPE_TAG
    }

    fn invoke(&mut self, op: &[u8], enc: &WireEncoder) -> InvokeResult {
        match KvOp::decode(op) {
            Some(KvOp::Get(k)) => InvokeResult::read(enc.encode_with(|b| {
                b.extend_from_slice(self.entries.get(&k).map_or("", String::as_str).as_bytes())
            })),
            Some(KvOp::Put(k, v)) => {
                let prev = self.entries.insert(k, v).unwrap_or_default();
                InvokeResult::wrote(enc.encode_with(|b| b.extend_from_slice(prev.as_bytes())))
            }
            Some(KvOp::Delete(k)) => {
                let prev = self.entries.remove(&k).unwrap_or_default();
                InvokeResult::wrote(enc.encode_with(|b| b.extend_from_slice(prev.as_bytes())))
            }
            Some(KvOp::Len) => {
                InvokeResult::read(enc.encode_with(|b| {
                    b.extend_from_slice(&(self.entries.len() as u64).to_le_bytes())
                }))
            }
            None => InvokeResult::read(Bytes::new()),
        }
    }

    fn snapshot(&self, enc: &WireEncoder) -> Bytes {
        enc.encode_with(|v| {
            v.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
            for (k, val) in &self.entries {
                put_str(v, k);
                put_str(v, val);
            }
        })
    }

    fn restore(&mut self, data: &[u8]) {
        *self = KvMap::decode(data);
    }

    fn boxed_clone(&self) -> Box<dyn ReplicaObject> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// Account
// ---------------------------------------------------------------------------

/// A bank account with an overdraft-protected balance — the classic atomic
/// action workload (used by `examples/bank_transfers`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Account {
    balance: u64,
}

/// Operations on an [`Account`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccountOp {
    /// Read the balance (read-only).
    Balance,
    /// Add funds (mutating); replies with the new balance.
    Deposit(u64),
    /// Remove funds (mutating). Replies with the new balance, or with
    /// `u64::MAX` if the balance was insufficient (no state change).
    Withdraw(u64),
}

impl AccountOp {
    /// Reply marker for a refused withdrawal.
    pub const REFUSED: u64 = u64::MAX;

    /// Encodes the operation.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            AccountOp::Balance => vec![0],
            AccountOp::Deposit(a) => {
                let mut v = vec![1];
                v.extend_from_slice(&a.to_le_bytes());
                v
            }
            AccountOp::Withdraw(a) => {
                let mut v = vec![2];
                v.extend_from_slice(&a.to_le_bytes());
                v
            }
        }
    }

    /// Decodes an operation; `None` for malformed input.
    pub fn decode(bytes: &[u8]) -> Option<AccountOp> {
        let amount =
            |b: &[u8]| -> Option<u64> { Some(u64::from_le_bytes(b.get(1..9)?.try_into().ok()?)) };
        match bytes.first()? {
            0 => Some(AccountOp::Balance),
            1 => Some(AccountOp::Deposit(amount(bytes)?)),
            2 => Some(AccountOp::Withdraw(amount(bytes)?)),
            _ => None,
        }
    }

    /// Decodes an account reply.
    pub fn decode_reply(reply: &[u8]) -> Option<u64> {
        Some(u64::from_le_bytes(reply.get(..8)?.try_into().ok()?))
    }
}

impl Account {
    /// The class tag of accounts.
    pub const TYPE_TAG: TypeTag = TypeTag::new(3);

    /// Opens an account with an initial balance.
    pub fn new(balance: u64) -> Self {
        Account { balance }
    }

    /// The current balance.
    pub fn balance(&self) -> u64 {
        self.balance
    }

    /// Decodes a snapshot.
    pub fn decode(data: &[u8]) -> Account {
        let balance = data
            .get(..8)
            .and_then(|b| b.try_into().ok())
            .map(u64::from_le_bytes)
            .unwrap_or(0);
        Account { balance }
    }

    fn decode_boxed(data: &[u8]) -> Box<dyn ReplicaObject> {
        Box::new(Account::decode(data))
    }
}

impl ReplicaObject for Account {
    fn type_tag(&self) -> TypeTag {
        Self::TYPE_TAG
    }

    fn invoke(&mut self, op: &[u8], enc: &WireEncoder) -> InvokeResult {
        let reply = |v: u64| enc.encode_with(|b| b.extend_from_slice(&v.to_le_bytes()));
        match AccountOp::decode(op) {
            Some(AccountOp::Balance) => InvokeResult::read(reply(self.balance)),
            Some(AccountOp::Deposit(a)) => {
                self.balance += a;
                InvokeResult::wrote(reply(self.balance))
            }
            Some(AccountOp::Withdraw(a)) => {
                if a > self.balance {
                    InvokeResult::read(reply(AccountOp::REFUSED))
                } else {
                    self.balance -= a;
                    InvokeResult::wrote(reply(self.balance))
                }
            }
            None => InvokeResult::read(Bytes::new()),
        }
    }

    fn snapshot(&self, enc: &WireEncoder) -> Bytes {
        enc.encode_with(|b| b.extend_from_slice(&self.balance.to_le_bytes()))
    }

    fn restore(&mut self, data: &[u8]) {
        *self = Account::decode(data);
    }

    fn boxed_clone(&self) -> Box<dyn ReplicaObject> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc() -> WireEncoder {
        WireEncoder::new()
    }

    #[test]
    fn counter_ops_roundtrip_and_apply() {
        let enc = enc();
        let mut c = Counter::new(10);
        let r = c.invoke(&CounterOp::Add(5).encode(), &enc);
        assert!(r.mutated);
        assert_eq!(CounterOp::decode_reply(&r.reply), Some(15));
        let r = c.invoke(&CounterOp::Get.encode(), &enc);
        assert!(!r.mutated);
        assert_eq!(CounterOp::decode_reply(&r.reply), Some(15));
        assert_eq!(c.value(), 15);
        assert_eq!(
            CounterOp::decode(&CounterOp::Add(-3).encode()),
            Some(CounterOp::Add(-3))
        );
        assert_eq!(CounterOp::decode(&[9]), None);
    }

    #[test]
    fn counter_snapshot_roundtrip() {
        let c = Counter::new(-42);
        let restored = Counter::decode(&c.snapshot(&enc()));
        assert_eq!(restored, c);
        assert_eq!(c.type_tag(), Counter::TYPE_TAG);
    }

    #[test]
    fn kv_ops_roundtrip_and_apply() {
        let enc = enc();
        let mut m = KvMap::new();
        assert!(m.is_empty());
        let r = m.invoke(&KvOp::Put("k1".into(), "v1".into()).encode(), &enc);
        assert!(r.mutated);
        assert!(r.reply.is_empty(), "no previous value");
        let r = m.invoke(&KvOp::Get("k1".into()).encode(), &enc);
        assert!(!r.mutated);
        assert_eq!(r.reply, b"v1");
        let r = m.invoke(&KvOp::Put("k1".into(), "v2".into()).encode(), &enc);
        assert_eq!(r.reply, b"v1", "previous value returned");
        let r = m.invoke(&KvOp::Len.encode(), &enc);
        assert_eq!(
            u64::from_le_bytes(r.reply.as_slice().try_into().unwrap()),
            1
        );
        let r = m.invoke(&KvOp::Delete("k1".into()).encode(), &enc);
        assert!(r.mutated);
        assert_eq!(r.reply, b"v2");
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn kv_op_encoding_roundtrip() {
        for op in [
            KvOp::Get("a".into()),
            KvOp::Put("key".into(), "value".into()),
            KvOp::Delete("x".into()),
            KvOp::Len,
        ] {
            assert_eq!(KvOp::decode(&op.encode()), Some(op));
        }
        assert_eq!(KvOp::decode(&[77]), None);
    }

    #[test]
    fn kv_snapshot_roundtrip() {
        let enc = enc();
        let mut m = KvMap::new();
        m.invoke(&KvOp::Put("a".into(), "1".into()).encode(), &enc);
        m.invoke(&KvOp::Put("b".into(), "2".into()).encode(), &enc);
        let restored = KvMap::decode(&m.snapshot(&enc));
        assert_eq!(restored, m);
        assert_eq!(restored.get("b"), Some("2"));
    }

    #[test]
    fn account_ops_apply_with_overdraft_protection() {
        let enc = enc();
        let mut a = Account::new(100);
        let r = a.invoke(&AccountOp::Withdraw(30).encode(), &enc);
        assert!(r.mutated);
        assert_eq!(AccountOp::decode_reply(&r.reply), Some(70));
        let r = a.invoke(&AccountOp::Withdraw(1000).encode(), &enc);
        assert!(!r.mutated, "refused withdrawal must not mutate");
        assert_eq!(AccountOp::decode_reply(&r.reply), Some(AccountOp::REFUSED));
        let r = a.invoke(&AccountOp::Deposit(10).encode(), &enc);
        assert_eq!(AccountOp::decode_reply(&r.reply), Some(80));
        let r = a.invoke(&AccountOp::Balance.encode(), &enc);
        assert!(!r.mutated);
        assert_eq!(a.balance(), 80);
        assert_eq!(
            AccountOp::decode(&AccountOp::Withdraw(5).encode()),
            Some(AccountOp::Withdraw(5))
        );
    }

    #[test]
    fn account_snapshot_roundtrip() {
        let a = Account::new(12345);
        assert_eq!(Account::decode(&a.snapshot(&enc())), a);
    }

    #[test]
    fn registry_decodes_builtins() {
        let enc = enc();
        let reg = TypeRegistry::with_builtins();
        assert!(reg.knows(Counter::TYPE_TAG));
        assert!(reg.knows(KvMap::TYPE_TAG));
        assert!(reg.knows(Account::TYPE_TAG));
        assert!(!reg.knows(TypeTag::new(99)));
        let c = Counter::new(7);
        let mut decoded = reg.decode(Counter::TYPE_TAG, &c.snapshot(&enc)).unwrap();
        let r = decoded.invoke(&CounterOp::Get.encode(), &enc);
        assert_eq!(CounterOp::decode_reply(&r.reply), Some(7));
        assert!(reg.decode(TypeTag::new(99), b"").is_none());
    }

    #[test]
    fn boxed_clone_is_independent() {
        let enc = enc();
        let mut a = Counter::new(1);
        let b = a.boxed_clone();
        a.invoke(&CounterOp::Add(1).encode(), &enc);
        assert_eq!(a.value(), 2);
        assert_eq!(Counter::decode(&b.snapshot(&enc)).value(), 1);
    }

    #[test]
    fn restore_replaces_state_in_place() {
        let enc = enc();
        let mut c = Counter::new(1);
        c.restore(&Counter::new(9).snapshot(&enc));
        assert_eq!(c.value(), 9);
        c.restore(b"garbage");
        assert_eq!(c.value(), 0, "lenient decode restores the default");
        let mut m = KvMap::new();
        m.invoke(&KvOp::Put("k".into(), "v".into()).encode(), &enc);
        let snap = m.snapshot(&enc);
        m.invoke(&KvOp::Delete("k".into()).encode(), &enc);
        m.restore(&snap);
        assert_eq!(m.get("k"), Some("v"));
        let mut a = Account::new(3);
        a.restore(&Account::new(77).snapshot(&enc));
        assert_eq!(a.balance(), 77);
    }

    #[test]
    fn replies_come_from_the_encoder_pool() {
        let enc = enc();
        let mut c = Counter::new(0);
        drop(c.invoke(&CounterOp::Add(1).encode(), &enc));
        assert!(enc.pooled() >= 1, "dropped reply returned to the pool");
        let before = groupview_sim::wire::stats();
        for _ in 0..50 {
            drop(c.invoke(&CounterOp::Add(1).encode(), &enc));
        }
        assert_eq!(
            groupview_sim::wire::stats().since(before).buffer_allocs,
            0,
            "steady-state replies must not allocate"
        );
    }

    #[test]
    fn malformed_ops_are_harmless_reads() {
        let enc = enc();
        let mut c = Counter::new(5);
        assert!(!c.invoke(&[], &enc).mutated);
        let mut m = KvMap::new();
        assert!(!m.invoke(&[255, 0, 0], &enc).mutated);
        let mut a = Account::new(5);
        assert!(!a.invoke(&[9], &enc).mutated);
    }
}
