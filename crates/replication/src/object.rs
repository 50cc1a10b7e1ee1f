//! The object model: what a persistent replicated object is made of.
//!
//! An object "is an instance of some class" whose operations "have access to
//! the instance variables and can thus modify the internal state" (§2.2).
//! Server nodes need "access to the executable binary of the code for the
//! object's methods" (§3.1) — in this reproduction, a [`TypeRegistry`] entry
//! mapping the stored [`TypeTag`] to the class's state decoder.
//!
//! A class is written once, as an [`ObjectType`]: its state, its typed
//! operations and replies, what each operation does ([`ObjectType::apply`]),
//! and the byte codecs for operations, replies and state. Servers drive
//! every class through [`ReplicaObject`], which one blanket impl derives
//! from the class definition.
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
}

/// A persistent replicated object's in-memory behaviour, as servers see it:
/// encoded operations in, encoded replies and snapshots out.
///
/// Every [`ObjectType`] is a `ReplicaObject` through one blanket impl; the
/// trait exists so servers can hold objects of any class behind
/// `Box<dyn ReplicaObject>`.
///
/// The trait is **encoder-aware**: replies are appended to the caller's
/// frame (every op of an invocation answers into one pooled frame) and
/// snapshots are written through the caller's pooled [`WireEncoder`], so
/// the object boundary allocates nothing in steady state (see
/// `docs/OBJECTS.md` for the encoder-ownership rules).
pub trait ReplicaObject {
    /// The stable tag identifying this class in object stores.
    fn type_tag(&self) -> TypeTag;

    /// Executes one encoded operation, appending its reply to `reply`;
    /// returns whether it modified the state. A malformed operation is a
    /// harmless read with an empty reply.
    fn invoke(&mut self, op: &[u8], reply: &mut Vec<u8>) -> bool;

    /// Encodes the full state for checkpointing / commit processing into a
    /// frame borrowed from `enc`.
    fn snapshot(&self, enc: &WireEncoder) -> Bytes;

    /// Replaces this object's state with a decoded snapshot, **in place**
    /// (undo restores and checkpoint installs reuse the live instance
    /// instead of decoding into a fresh box). Decoding is lenient: malformed
    /// bytes restore a well-defined default.
    fn restore(&mut self, data: &[u8]);
}

/// A persistent object class: its state (`Self`), its typed operations and
/// replies, what each operation does, and the byte codecs for all three.
///
/// Implementations must be deterministic — active replication executes
/// every operation at every replica and relies on identical results — and
/// must keep `encode_op`/`decode_op` and `encode_reply`/`decode_reply`
/// exact inverses (property-tested for the built-in classes in
/// `tests/typed_properties.rs`). Decoders are lenient: hostile bytes yield
/// `None` (or, for state, a well-defined default), never a panic.
pub trait ObjectType: Sized + 'static {
    /// The class's operation type (e.g. [`CounterOp`]).
    type Op: fmt::Debug + Clone + PartialEq;
    /// The class's decoded reply type (e.g. `i64` for counters).
    type Reply: fmt::Debug + Clone + PartialEq;

    /// The stable class tag ([`ReplicaObject::type_tag`] of every instance).
    const TAG: TypeTag;

    /// Runs `op` against this object, returning its reply and whether it
    /// modified the state (drives the commit-time no-copy optimisation).
    fn apply(&mut self, op: Self::Op) -> (Self::Reply, bool);

    /// Appends the encoding of the full state to `buf`.
    fn encode_state(&self, buf: &mut Vec<u8>);

    /// Decodes a state written by [`ObjectType::encode_state`]. Lenient:
    /// malformed bytes decode to a well-defined default, never a panic.
    fn decode_state(bytes: &[u8]) -> Self;

    /// Appends the wire encoding of `op` to `buf` (composes with the
    /// pooled `WireEncoder`).
    fn encode_op(op: &Self::Op, buf: &mut Vec<u8>);

    /// Decodes an operation; `None` for malformed input.
    fn decode_op(bytes: &[u8]) -> Option<Self::Op>;

    /// Whether `op` is read-only (drives the object lock mode and the
    /// commit-time no-copy optimisation).
    fn op_is_read_only(op: &Self::Op) -> bool;

    /// Appends the wire encoding of `reply` to `buf`.
    fn encode_reply(reply: &Self::Reply, buf: &mut Vec<u8>);

    /// Decodes the reply to `op`; `None` for malformed bytes. The reply
    /// format may depend on the operation (a [`KvOp::Len`] reply is a
    /// count, a [`KvOp::Get`] reply a value), so decoding is op-contextual.
    fn decode_reply(op: &Self::Op, reply: &[u8]) -> Option<Self::Reply>;

    /// Convenience: the wire encoding of `op` as a fresh vector (cold
    /// paths; hot paths encode through a pooled frame).
    fn op_vec(op: &Self::Op) -> Vec<u8> {
        let mut buf = Vec::new();
        Self::encode_op(op, &mut buf);
        buf
    }

    /// Convenience: the wire encoding of `reply` as a fresh vector.
    fn reply_vec(reply: &Self::Reply) -> Vec<u8> {
        let mut buf = Vec::new();
        Self::encode_reply(reply, &mut buf);
        buf
    }

    /// Human-readable decode of encoded op bytes (oracle diagnostics).
    fn describe_op(bytes: &[u8]) -> String {
        format!("{:?}", Self::decode_op(bytes))
    }
}

/// The server-side behaviour of every class, derived from its definition:
/// decode the op, [`apply`](ObjectType::apply) it, append the encoded
/// reply to the caller's frame.
impl<O: ObjectType> ReplicaObject for O {
    fn type_tag(&self) -> TypeTag {
        O::TAG
    }

    fn invoke(&mut self, op: &[u8], reply: &mut Vec<u8>) -> bool {
        let Some(op) = O::decode_op(op) else {
            return false;
        };
        let (value, mutated) = self.apply(op);
        O::encode_reply(&value, reply);
        mutated
    }

    fn snapshot(&self, enc: &WireEncoder) -> Bytes {
        enc.encode_with(|buf| self.encode_state(buf))
    }

    fn restore(&mut self, data: &[u8]) {
        *self = O::decode_state(data);
    }
}

/// Decodes stored bytes back into a live object.
type DecodeFn = fn(&[u8]) -> Box<dyn ReplicaObject>;

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
        reg.register::<Counter>();
        reg.register::<KvMap>();
        reg.register::<Account>();
        reg
    }

    /// Registers (or replaces) the class `O` under its tag.
    pub(crate) fn register<O: ObjectType>(&self) {
        let decode: DecodeFn = |data| Box::new(O::decode_state(data));
        self.inner.borrow_mut().insert(O::TAG, decode);
    }

    /// Decodes `data` as an instance of `tag`, if the class is known.
    pub fn decode(&self, tag: TypeTag, data: &[u8]) -> Option<Box<dyn ReplicaObject>> {
        self.inner.borrow().get(&tag).map(|f| f(data))
    }

    /// Whether `tag` has a registered decoder.
    pub(crate) fn knows(&self, tag: TypeTag) -> bool {
        self.inner.borrow().contains_key(&tag)
    }
}

/// The eight bytes at `at..at + 8`, if present — the payload of every
/// fixed-width field in the built-in classes' encodings.
fn word(bytes: &[u8], at: usize) -> Option<[u8; 8]> {
    bytes.get(at..at + 8)?.try_into().ok()
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
    /// Add a delta (mutating); replies with the new value. The sum wraps
    /// at the `i64` bounds, identically in debug and release builds.
    Add(i64),
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
}

impl ObjectType for Counter {
    type Op = CounterOp;
    type Reply = i64;

    const TAG: TypeTag = Counter::TYPE_TAG;

    fn apply(&mut self, op: CounterOp) -> (i64, bool) {
        match op {
            CounterOp::Get => (self.value, false),
            CounterOp::Add(d) => {
                self.value = self.value.wrapping_add(d);
                (self.value, true)
            }
        }
    }

    fn encode_state(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.value.to_le_bytes());
    }

    fn decode_state(bytes: &[u8]) -> Counter {
        Counter::new(word(bytes, 0).map_or(0, i64::from_le_bytes))
    }

    fn encode_op(op: &CounterOp, buf: &mut Vec<u8>) {
        match op {
            CounterOp::Get => buf.push(0),
            CounterOp::Add(d) => {
                buf.push(1);
                buf.extend_from_slice(&d.to_le_bytes());
            }
        }
    }

    fn decode_op(bytes: &[u8]) -> Option<CounterOp> {
        match bytes.first()? {
            0 => Some(CounterOp::Get),
            1 => Some(CounterOp::Add(i64::from_le_bytes(word(bytes, 1)?))),
            _ => None,
        }
    }

    fn op_is_read_only(op: &CounterOp) -> bool {
        matches!(op, CounterOp::Get)
    }

    fn encode_reply(reply: &i64, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&reply.to_le_bytes());
    }

    fn decode_reply(_op: &CounterOp, reply: &[u8]) -> Option<i64> {
        Some(i64::from_le_bytes(word(reply, 0)?))
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

/// A typed [`KvMap`] reply: values for `Get`/`Put`/`Delete` (empty when the
/// key was absent), a count for `Len`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvReply {
    /// The value read, or the previous value of a `Put`/`Delete` (empty
    /// string when there was none).
    Value(String),
    /// The entry count of a `Len`.
    Len(u64),
}

impl KvReply {
    /// The carried value, if this is a [`KvReply::Value`].
    pub fn value(&self) -> Option<&str> {
        match self {
            KvReply::Value(v) => Some(v),
            KvReply::Len(_) => None,
        }
    }

    /// The carried count, if this is a [`KvReply::Len`].
    pub fn count(&self) -> Option<u64> {
        match self {
            KvReply::Value(_) => None,
            KvReply::Len(n) => Some(*n),
        }
    }
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
}

impl ObjectType for KvMap {
    type Op = KvOp;
    type Reply = KvReply;

    const TAG: TypeTag = KvMap::TYPE_TAG;

    fn apply(&mut self, op: KvOp) -> (KvReply, bool) {
        let value = |v: Option<String>| KvReply::Value(v.unwrap_or_default());
        match op {
            KvOp::Get(k) => (value(self.entries.get(&k).cloned()), false),
            KvOp::Put(k, v) => (value(self.entries.insert(k, v)), true),
            KvOp::Delete(k) => (value(self.entries.remove(&k)), true),
            KvOp::Len => (KvReply::Len(self.entries.len() as u64), false),
        }
    }

    fn encode_state(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        for (k, v) in &self.entries {
            put_str(buf, k);
            put_str(buf, v);
        }
    }

    fn decode_state(bytes: &[u8]) -> KvMap {
        let mut entries = BTreeMap::new();
        let count = word(bytes, 0).map_or(0, u64::from_le_bytes);
        let mut pos = 8;
        for _ in 0..count {
            let (Some(k), Some(v)) = (get_str(bytes, &mut pos), get_str(bytes, &mut pos)) else {
                break;
            };
            entries.insert(k, v);
        }
        KvMap { entries }
    }

    fn encode_op(op: &KvOp, buf: &mut Vec<u8>) {
        match op {
            KvOp::Get(k) => {
                buf.push(0);
                put_str(buf, k);
            }
            KvOp::Put(k, v) => {
                buf.push(1);
                put_str(buf, k);
                put_str(buf, v);
            }
            KvOp::Delete(k) => {
                buf.push(2);
                put_str(buf, k);
            }
            KvOp::Len => buf.push(3),
        }
    }

    fn decode_op(bytes: &[u8]) -> Option<KvOp> {
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

    fn op_is_read_only(op: &KvOp) -> bool {
        matches!(op, KvOp::Get(_) | KvOp::Len)
    }

    fn encode_reply(reply: &KvReply, buf: &mut Vec<u8>) {
        match reply {
            KvReply::Value(v) => buf.extend_from_slice(v.as_bytes()),
            KvReply::Len(n) => buf.extend_from_slice(&n.to_le_bytes()),
        }
    }

    fn decode_reply(op: &KvOp, reply: &[u8]) -> Option<KvReply> {
        match op {
            KvOp::Len => Some(KvReply::Len(u64::from_le_bytes(word(reply, 0)?))),
            KvOp::Get(_) | KvOp::Put(..) | KvOp::Delete(_) => {
                Some(KvReply::Value(std::str::from_utf8(reply).ok()?.to_string()))
            }
        }
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
    /// Add funds (mutating). Replies with the new balance, or with
    /// [`AccountOp::REFUSED`] if the balance would overflow (no state
    /// change).
    Deposit(u64),
    /// Remove funds (mutating). Replies with the new balance, or with
    /// [`AccountOp::REFUSED`] if the balance was insufficient (no state
    /// change).
    Withdraw(u64),
}

impl AccountOp {
    /// Reply marker for a refused deposit or withdrawal.
    pub const REFUSED: u64 = u64::MAX;
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
}

impl ObjectType for Account {
    type Op = AccountOp;
    type Reply = u64;

    const TAG: TypeTag = Account::TYPE_TAG;

    fn apply(&mut self, op: AccountOp) -> (u64, bool) {
        let updated = match op {
            AccountOp::Balance => return (self.balance, false),
            AccountOp::Deposit(a) => self.balance.checked_add(a),
            AccountOp::Withdraw(a) => self.balance.checked_sub(a),
        };
        match updated {
            Some(balance) => {
                self.balance = balance;
                (balance, true)
            }
            None => (AccountOp::REFUSED, false),
        }
    }

    fn encode_state(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.balance.to_le_bytes());
    }

    fn decode_state(bytes: &[u8]) -> Account {
        Account::new(word(bytes, 0).map_or(0, u64::from_le_bytes))
    }

    fn encode_op(op: &AccountOp, buf: &mut Vec<u8>) {
        match op {
            AccountOp::Balance => buf.push(0),
            AccountOp::Deposit(a) => {
                buf.push(1);
                buf.extend_from_slice(&a.to_le_bytes());
            }
            AccountOp::Withdraw(a) => {
                buf.push(2);
                buf.extend_from_slice(&a.to_le_bytes());
            }
        }
    }

    fn decode_op(bytes: &[u8]) -> Option<AccountOp> {
        let amount = || word(bytes, 1).map(u64::from_le_bytes);
        match bytes.first()? {
            0 => Some(AccountOp::Balance),
            1 => Some(AccountOp::Deposit(amount()?)),
            2 => Some(AccountOp::Withdraw(amount()?)),
            _ => None,
        }
    }

    fn op_is_read_only(op: &AccountOp) -> bool {
        matches!(op, AccountOp::Balance)
    }

    fn encode_reply(reply: &u64, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&reply.to_le_bytes());
    }

    fn decode_reply(_op: &AccountOp, reply: &[u8]) -> Option<u64> {
        Some(u64::from_le_bytes(word(reply, 0)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc() -> WireEncoder {
        WireEncoder::new()
    }

    /// Invokes `op` the way the replica loop does, into a reply buffer.
    fn run(obj: &mut dyn ReplicaObject, op: &[u8]) -> InvokeResult {
        let mut reply = Vec::new();
        let mutated = obj.invoke(op, &mut reply);
        InvokeResult {
            reply: reply.into(),
            mutated,
        }
    }

    #[test]
    fn counter_ops_roundtrip_and_apply() {
        let mut c = Counter::new(10);
        let r = run(&mut c, &Counter::op_vec(&CounterOp::Add(5)));
        assert!(r.mutated);
        assert_eq!(Counter::decode_reply(&CounterOp::Get, &r.reply), Some(15));
        let r = run(&mut c, &Counter::op_vec(&CounterOp::Get));
        assert!(!r.mutated);
        assert_eq!(Counter::decode_reply(&CounterOp::Get, &r.reply), Some(15));
        assert_eq!(c.value(), 15);
        assert_eq!(
            Counter::decode_op(&Counter::op_vec(&CounterOp::Add(-3))),
            Some(CounterOp::Add(-3))
        );
        assert_eq!(Counter::decode_op(&[9]), None);
    }

    #[test]
    fn counter_snapshot_roundtrip() {
        let c = Counter::new(-42);
        let restored = Counter::decode_state(&c.snapshot(&enc()));
        assert_eq!(restored, c);
        assert_eq!(c.type_tag(), Counter::TYPE_TAG);
    }

    /// Regression: `Add` past `i64::MAX` used to panic under the debug
    /// profile and wrap silently in release.
    #[test]
    fn counter_add_wraps_at_the_bounds() {
        let mut c = Counter::new(1);
        assert_eq!(c.apply(CounterOp::Add(i64::MAX)), (i64::MIN, true));
        assert_eq!(c.apply(CounterOp::Add(-1)), (i64::MAX, true));
        assert_eq!(c.value(), i64::MAX);
    }

    #[test]
    fn kv_ops_roundtrip_and_apply() {
        let mut m = KvMap::new();
        assert!(m.is_empty());
        let r = run(&mut m, &KvMap::op_vec(&KvOp::Put("k1".into(), "v1".into())));
        assert!(r.mutated);
        assert!(r.reply.is_empty(), "no previous value");
        let r = run(&mut m, &KvMap::op_vec(&KvOp::Get("k1".into())));
        assert!(!r.mutated);
        assert_eq!(r.reply, b"v1");
        let r = run(&mut m, &KvMap::op_vec(&KvOp::Put("k1".into(), "v2".into())));
        assert_eq!(r.reply, b"v1", "previous value returned");
        let r = run(&mut m, &KvMap::op_vec(&KvOp::Len));
        assert_eq!(
            u64::from_le_bytes(r.reply.as_slice().try_into().unwrap()),
            1
        );
        let r = run(&mut m, &KvMap::op_vec(&KvOp::Delete("k1".into())));
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
            assert_eq!(KvMap::decode_op(&KvMap::op_vec(&op)), Some(op));
        }
        assert_eq!(KvMap::decode_op(&[77]), None);
    }

    #[test]
    fn kv_snapshot_roundtrip() {
        let mut m = KvMap::new();
        m.apply(KvOp::Put("a".into(), "1".into()));
        m.apply(KvOp::Put("b".into(), "2".into()));
        let restored = KvMap::decode_state(&m.snapshot(&enc()));
        assert_eq!(restored, m);
        assert_eq!(restored.get("b"), Some("2"));
    }

    #[test]
    fn account_ops_apply_with_overdraft_protection() {
        let mut a = Account::new(100);
        let reply = |r: &InvokeResult| Account::decode_reply(&AccountOp::Balance, &r.reply);
        let r = run(&mut a, &Account::op_vec(&AccountOp::Withdraw(30)));
        assert!(r.mutated);
        assert_eq!(reply(&r), Some(70));
        let r = run(&mut a, &Account::op_vec(&AccountOp::Withdraw(1000)));
        assert!(!r.mutated, "refused withdrawal must not mutate");
        assert_eq!(reply(&r), Some(AccountOp::REFUSED));
        let r = run(&mut a, &Account::op_vec(&AccountOp::Deposit(10)));
        assert_eq!(reply(&r), Some(80));
        let r = run(&mut a, &Account::op_vec(&AccountOp::Balance));
        assert!(!r.mutated);
        assert_eq!(a.balance(), 80);
        assert_eq!(
            Account::decode_op(&Account::op_vec(&AccountOp::Withdraw(5))),
            Some(AccountOp::Withdraw(5))
        );
    }

    /// Regression: a `Deposit` past `u64::MAX` used to panic under the
    /// debug profile and, in release, wrap the balance to a small number.
    #[test]
    fn account_refuses_an_overflowing_deposit() {
        let mut a = Account::new(1);
        let r = run(&mut a, &Account::op_vec(&AccountOp::Deposit(u64::MAX)));
        assert!(!r.mutated, "refused deposit must not mutate");
        assert_eq!(
            Account::decode_reply(&AccountOp::Balance, &r.reply),
            Some(AccountOp::REFUSED)
        );
        assert_eq!(a.balance(), 1);
        assert_eq!(a.apply(AccountOp::Deposit(u64::MAX - 1)), (u64::MAX, true));
    }

    #[test]
    fn account_snapshot_roundtrip() {
        let a = Account::new(12345);
        assert_eq!(Account::decode_state(&a.snapshot(&enc())), a);
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
        assert_eq!(decoded.type_tag(), Counter::TYPE_TAG);
        let r = run(&mut *decoded, &Counter::op_vec(&CounterOp::Get));
        assert_eq!(Counter::decode_reply(&CounterOp::Get, &r.reply), Some(7));
        assert!(reg.decode(TypeTag::new(99), b"").is_none());
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
        m.apply(KvOp::Put("k".into(), "v".into()));
        let snap = m.snapshot(&enc);
        m.apply(KvOp::Delete("k".into()));
        m.restore(&snap);
        assert_eq!(m.get("k"), Some("v"));
        let mut a = Account::new(3);
        a.restore(&Account::new(77).snapshot(&enc));
        assert_eq!(a.balance(), 77);
    }

    #[test]
    fn replies_come_from_the_encoder_pool() {
        // The replica loop appends every reply of an invocation to one
        // pooled frame.
        let enc = enc();
        let mut c = Counter::new(0);
        let add = Counter::op_vec(&CounterOp::Add(1));
        let mut invoke = || {
            drop(enc.encode_with(|buf| {
                c.invoke(&add, buf);
            }))
        };
        invoke();
        assert!(enc.pooled() >= 1, "dropped reply returned to the pool");
        let before = groupview_sim::wire::stats();
        for _ in 0..50 {
            invoke();
        }
        assert_eq!(
            groupview_sim::wire::stats().since(before).buffer_allocs,
            0,
            "steady-state replies must not allocate"
        );
    }

    #[test]
    fn malformed_ops_are_harmless_reads() {
        let mut c = Counter::new(5);
        assert!(!run(&mut c, &[]).mutated);
        let mut m = KvMap::new();
        assert!(!run(&mut m, &[255, 0, 0]).mutated);
        let mut a = Account::new(5);
        assert!(!run(&mut a, &[9]).mutated);
    }
}
