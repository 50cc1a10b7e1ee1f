//! The typed object API: `ObjectType` classes and `Handle<O>` clients.
//!
//! The paper's model is *typed* persistent objects — counters, accounts,
//! directories — invoked through atomic actions, yet the byte-level client
//! surface ([`Client::invoke`]) asks every call site to encode operations
//! and decode replies by hand. This module closes that gap in two pieces:
//!
//! * [`ObjectType`] extends [`ReplicaObject`] with the *class-level* codec
//!   contract: an `Op` type, a `Reply` type, and encode/decode functions
//!   for both. The three built-in classes ([`Counter`], [`KvMap`],
//!   [`Account`]) implement it, and the scenario engine's oracle and
//!   workload generators dispatch through it instead of keeping parallel
//!   per-class match arms.
//! * [`Handle`]`<O>` is a typed client surface for one object:
//!   `handle.invoke(action, CounterOp::Add(10))? -> i64`, with the
//!   read/write lock intent inferred from the operation
//!   ([`ObjectType::op_is_read_only`]) and the operation encoded into a
//!   pooled wire frame (no caller-side `Vec<u8>` per call).
//!
//! The raw-bytes [`Client::invoke`]/[`Client::invoke_read`] surface stays
//! available as an escape hatch for workloads that record or replay
//! encoded histories. See `docs/OBJECTS.md` for the full design.

use crate::error::{ActivateError, InvokeError};
use crate::invoke::ObjectGroup;
use crate::object::{Account, AccountOp, Counter, CounterOp, KvMap, KvOp, ReplicaObject};
use crate::system::Client;
use groupview_actions::ActionId;
use groupview_store::{TypeTag, Uid};
use std::fmt;
use std::marker::PhantomData;

/// A persistent object class: the replica behaviour of [`ReplicaObject`]
/// plus the typed operation/reply codec contract client surfaces need.
///
/// Implementations must keep `encode_op`/`decode_op` and
/// `encode_reply`/`decode_reply` exact inverses, and the reply wire format
/// identical to what [`ReplicaObject::invoke`] produces — property-tested
/// for the built-in classes in `tests/typed_properties.rs`.
pub trait ObjectType: ReplicaObject + Sized + 'static {
    /// The class's operation type (e.g. [`CounterOp`]).
    type Op: fmt::Debug + Clone + PartialEq;
    /// The class's decoded reply type (e.g. `i64` for counters).
    type Reply: fmt::Debug + Clone + PartialEq;

    /// The stable class tag ([`ReplicaObject::type_tag`] of every instance).
    const TAG: TypeTag;

    /// Appends the wire encoding of `op` to `buf` (composes with the
    /// pooled `WireEncoder`).
    fn encode_op(op: &Self::Op, buf: &mut Vec<u8>);

    /// Decodes an operation; `None` for malformed input.
    fn decode_op(bytes: &[u8]) -> Option<Self::Op>;

    /// Whether `op` is read-only (drives the object lock mode and the
    /// commit-time no-copy optimisation).
    fn op_is_read_only(op: &Self::Op) -> bool;

    /// Appends the wire encoding of `reply` to `buf` — the same bytes the
    /// class's [`ReplicaObject::invoke`] writes for the operation that
    /// produced it.
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

// ---------------------------------------------------------------------------
// Built-in class implementations
// ---------------------------------------------------------------------------

impl ObjectType for Counter {
    type Op = CounterOp;
    type Reply = i64;

    const TAG: TypeTag = Counter::TYPE_TAG;

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
        CounterOp::decode(bytes)
    }

    fn op_is_read_only(op: &CounterOp) -> bool {
        matches!(op, CounterOp::Get)
    }

    fn encode_reply(reply: &i64, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&reply.to_le_bytes());
    }

    fn decode_reply(_op: &CounterOp, reply: &[u8]) -> Option<i64> {
        CounterOp::decode_reply(reply)
    }
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

impl ObjectType for KvMap {
    type Op = KvOp;
    type Reply = KvReply;

    const TAG: TypeTag = KvMap::TYPE_TAG;

    fn encode_op(op: &KvOp, buf: &mut Vec<u8>) {
        // Delegate to the escape-hatch encoder (one source of truth for the
        // wire layout); KvOp encoding builds nested strings anyway.
        buf.extend_from_slice(&op.encode());
    }

    fn decode_op(bytes: &[u8]) -> Option<KvOp> {
        KvOp::decode(bytes)
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
            KvOp::Len => Some(KvReply::Len(u64::from_le_bytes(
                reply.get(..8)?.try_into().ok()?,
            ))),
            KvOp::Get(_) | KvOp::Put(..) | KvOp::Delete(_) => {
                Some(KvReply::Value(std::str::from_utf8(reply).ok()?.to_string()))
            }
        }
    }
}

/// Derives an [`ObjectType`] impl for a class whose operations follow the
/// workspace's standard wire shape: one discriminant byte, then an optional
/// fixed-width little-endian integer payload, with replies that are a single
/// fixed-width little-endian integer. [`Counter`] and [`Account`] fit this
/// shape; [`KvMap`] (string payloads, op-contextual replies) does not and
/// keeps its hand-written impl.
///
/// ```rust
/// use groupview_replication::{object_class, ObjectType};
/// # use groupview_replication::{Account, AccountOp};
/// // The Account impl in this crate is exactly:
/// // object_class! {
/// //     impl ObjectType for Account {
/// //         type Op = AccountOp;
/// //         type Reply = u64;
/// //         const TAG = Account::TYPE_TAG;
/// //         ops {
/// //             0 => Balance: read,
/// //             1 => Deposit(u64): write,
/// //             2 => Withdraw(u64): write,
/// //         }
/// //     }
/// // }
/// assert_eq!(Account::op_vec(&AccountOp::Deposit(7)), AccountOp::Deposit(7).encode());
/// ```
///
/// The generated codec is bit-identical to the hand-written layout:
/// `encode_op` emits `[disc][payload.to_le_bytes()]`, `decode_op` reads the
/// payload from bytes `1..1+size_of::<P>()` (trailing bytes ignored, short
/// or unknown input decodes to `None`), and the reply codec is
/// `Reply::to_le_bytes`/`from_le_bytes`. Payload types must be `Copy`
/// integers (anything with `to_le_bytes`/`from_le_bytes`).
#[macro_export]
macro_rules! object_class {
    (
        impl ObjectType for $class:ty {
            type Op = $op:ident;
            type Reply = $reply:ty;
            const TAG = $tag:expr;
            ops {
                $( $disc:literal => $variant:ident $(($payload:ty))? : $mode:ident ),+ $(,)?
            }
        }
    ) => {
        impl $crate::ObjectType for $class {
            type Op = $op;
            type Reply = $reply;

            const TAG: $crate::__TypeTag = $tag;

            fn encode_op(op: &$op, buf: &mut Vec<u8>) {
                $( $crate::object_class!(@encode_arm op, buf, $disc, $op, $variant $(, $payload)?); )+
            }

            fn decode_op(bytes: &[u8]) -> Option<$op> {
                match *bytes.first()? {
                    $( $disc => $crate::object_class!(@decode_arm bytes, $op, $variant $(, $payload)?), )+
                    _ => None,
                }
            }

            fn op_is_read_only(op: &$op) -> bool {
                $( $crate::object_class!(@read_arm op, $op, $variant, $mode); )+
                unreachable!("operation not listed in object_class! ops")
            }

            fn encode_reply(reply: &$reply, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&reply.to_le_bytes());
            }

            fn decode_reply(_op: &$op, reply: &[u8]) -> Option<$reply> {
                Some(<$reply>::from_le_bytes(
                    reply.get(..core::mem::size_of::<$reply>())?.try_into().ok()?,
                ))
            }
        }
    };

    // -- internal: one encode_op arm (unit / payload variant) --------------
    (@encode_arm $val:ident, $buf:ident, $disc:literal, $op:ident, $variant:ident) => {
        if matches!($val, $op::$variant { .. }) {
            $buf.push($disc);
            return;
        }
    };
    (@encode_arm $val:ident, $buf:ident, $disc:literal, $op:ident, $variant:ident, $payload:ty) => {
        if let $op::$variant(payload) = $val {
            $buf.push($disc);
            $buf.extend_from_slice(&payload.to_le_bytes());
            return;
        }
    };

    // -- internal: one decode_op arm ---------------------------------------
    (@decode_arm $bytes:ident, $op:ident, $variant:ident) => {
        Some($op::$variant)
    };
    (@decode_arm $bytes:ident, $op:ident, $variant:ident, $payload:ty) => {
        Some($op::$variant(<$payload>::from_le_bytes(
            $bytes
                .get(1..1 + core::mem::size_of::<$payload>())?
                .try_into()
                .ok()?,
        )))
    };

    // -- internal: one op_is_read_only arm ---------------------------------
    (@read_arm $val:ident, $op:ident, $variant:ident, read) => {
        if matches!($val, $op::$variant { .. }) {
            return true;
        }
    };
    (@read_arm $val:ident, $op:ident, $variant:ident, write) => {
        if matches!($val, $op::$variant { .. }) {
            return false;
        }
    };
}

// Account is the macro's proof of use: the derived codec must stay
// bit-identical to the hand-written one it replaced (pinned by the
// `tests/typed_properties.rs` codec properties and the oracle's replay of
// recorded account histories).
object_class! {
    impl ObjectType for Account {
        type Op = AccountOp;
        type Reply = u64;
        const TAG = Account::TYPE_TAG;
        ops {
            0 => Balance: read,
            1 => Deposit(u64): write,
            2 => Withdraw(u64): write,
        }
    }
}

// ---------------------------------------------------------------------------
// TypedUid and Handle
// ---------------------------------------------------------------------------

/// A [`Uid`] carrying its object class at the type level, as returned by
/// `System::create_typed`. Opening it yields a [`Handle`] of the right
/// class without a turbofish.
///
/// The marker is `fn() -> O` rather than `O`: a `TypedUid` names a class,
/// it does not own an instance, so it stays `Send + Sync + Copy` for
/// every class — routed sharded calls ship it across shard threads.
pub struct TypedUid<O: ObjectType> {
    uid: Uid,
    _class: PhantomData<fn() -> O>,
}

impl<O: ObjectType> TypedUid<O> {
    /// Asserts (unchecked) that `uid` names an object of class `O` — the
    /// escape hatch for uids recovered from directories or specs. A wrong
    /// assertion surfaces as garbled typed replies, exactly like the raw
    /// byte surface would.
    pub fn assume(uid: Uid) -> Self {
        TypedUid {
            uid,
            _class: PhantomData,
        }
    }

    /// The underlying uid.
    pub fn uid(&self) -> Uid {
        self.uid
    }

    /// Opens a typed handle for this object on `client`.
    pub fn open(&self, client: &Client) -> Handle<O> {
        client.open::<O>(self.uid)
    }
}

impl<O: ObjectType> Clone for TypedUid<O> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<O: ObjectType> Copy for TypedUid<O> {}

impl<O: ObjectType> fmt::Debug for TypedUid<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TypedUid({})", self.uid)
    }
}

impl<O: ObjectType> fmt::Display for TypedUid<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.uid.fmt(f)
    }
}

impl<O: ObjectType> From<TypedUid<O>> for Uid {
    fn from(t: TypedUid<O>) -> Uid {
        t.uid
    }
}

/// A typed client surface for one persistent object.
///
/// Obtained from [`Client::open`] (or [`TypedUid::open`]); one handle can
/// serve any number of sequential actions. Per action, [`Handle::activate`]
/// (or [`Handle::activate_read_only`]) binds the object, then
/// [`Handle::invoke`] runs typed operations:
///
/// ```rust
/// use groupview_replication::{Counter, CounterOp, System};
///
/// let sys = System::builder(7).nodes(5).build();
/// let nodes = sys.sim().nodes();
/// let uid = sys
///     .create_typed(Counter::new(0), &nodes[1..4], &nodes[1..4])
///     .expect("create");
/// let client = sys.client(nodes[4]);
/// let counter = uid.open(&client);
///
/// let action = client.begin_action();
/// counter.activate(action, 2).expect("activate");
/// let value = counter.invoke(action, CounterOp::Add(10)).expect("invoke");
/// assert_eq!(value, 10);
/// client.commit(action).expect("commit");
/// ```
///
/// The lock intent (read vs write) is inferred from the operation, and the
/// operation is encoded straight into a pooled wire frame — typed calls
/// allocate *less* than the raw byte surface, not more.
///
/// A handle is a typed view over its client's action table: it holds no
/// per-action state, so any number of handles on one client and uid invoke
/// on the same activation, and dropping a handle loses nothing.
pub struct Handle<O: ObjectType> {
    client: Client,
    uid: Uid,
    _class: PhantomData<O>,
}

impl<O: ObjectType> fmt::Debug for Handle<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Handle")
            .field("uid", &self.uid)
            .field("client", &self.client)
            .finish()
    }
}

impl<O: ObjectType> Handle<O> {
    pub(crate) fn new(client: Client, uid: Uid) -> Self {
        Handle {
            client,
            uid,
            _class: PhantomData,
        }
    }

    /// The object this handle serves.
    pub fn uid(&self) -> Uid {
        self.uid
    }

    /// The client this handle invokes through.
    pub fn client(&self) -> &Client {
        &self.client
    }

    /// Activates the object for `action` with up to `replicas` servers
    /// (read-write). Returns the bound group for inspection; the client's
    /// action table keeps it for [`Handle::invoke`].
    ///
    /// # Errors
    ///
    /// See [`Client::activate`]; on error the action should be aborted.
    pub fn activate(
        &self,
        action: ActionId,
        replicas: usize,
    ) -> Result<ObjectGroup, ActivateError> {
        self.client.activate(action, self.uid, replicas)
    }

    /// Activates the object for `action` read-only (enables the
    /// bind-anywhere and commit-time no-copy optimisations).
    ///
    /// # Errors
    ///
    /// See [`Client::activate_read_only`].
    pub fn activate_read_only(
        &self,
        action: ActionId,
        replicas: usize,
    ) -> Result<ObjectGroup, ActivateError> {
        self.client.activate_read_only(action, self.uid, replicas)
    }

    /// Invokes a typed operation on behalf of `action`, choosing the
    /// read/write lock intent from the operation itself, and decodes the
    /// typed reply. The operation runs on the latest activation of this
    /// object that the handle's client made for `action`.
    ///
    /// # Errors
    ///
    /// See [`InvokeError`]; additionally
    /// [`InvokeError::MalformedReply`] when the reply bytes do not decode
    /// as an `O::Reply` (a class contract violation). Invoking before the
    /// client activated the object for this action reports
    /// [`InvokeError::NotActivated`].
    pub fn invoke(&self, action: ActionId, op: O::Op) -> Result<O::Reply, InvokeError> {
        let group = self
            .client
            .group_of(action, self.uid)
            .ok_or(InvokeError::NotActivated(self.uid))?;
        invoke_typed::<O>(&self.client, action, &group, op)
    }

    /// Invokes a batch of typed operations as **one** replicated unit on
    /// behalf of `action`: one object lock, one wire frame, one undo
    /// snapshot, and one commit-time write-back for the whole batch.
    /// Replies come back index-aligned with `ops`.
    ///
    /// The lock intent is the **strongest** across the batch: a batch is
    /// read-only (concurrent readers allowed, commit-time state copy
    /// skipped) only when *every* op in it is read-only — one write op
    /// upgrades the whole batch to a write lock. An empty batch returns
    /// `Ok(vec![])` without touching the object.
    ///
    /// # Errors
    ///
    /// See [`Handle::invoke`]; an error leaves none of the batch's effects
    /// visible once the action aborts (the batch undoes as one unit).
    pub fn invoke_batch(
        &self,
        action: ActionId,
        ops: &[O::Op],
    ) -> Result<Vec<O::Reply>, InvokeError> {
        if ops.is_empty() {
            return Ok(Vec::new());
        }
        let group = self
            .client
            .group_of(action, self.uid)
            .ok_or(InvokeError::NotActivated(self.uid))?;
        let write = !ops.iter().all(O::op_is_read_only);
        // One pooled frame per op; all released when the batch finishes.
        let frames: Vec<_> = ops
            .iter()
            .map(|op| self.client.wire().encode_with(|buf| O::encode_op(op, buf)))
            .collect();
        let frame_refs: Vec<&[u8]> = frames.iter().map(|f| f.as_slice()).collect();
        let replies = self
            .client
            .sys()
            .do_invoke_batch(action, &group, &frame_refs, write)?;
        ops.iter()
            .zip(&replies)
            .map(|(op, reply)| {
                O::decode_reply(op, reply).ok_or(InvokeError::MalformedReply(self.uid))
            })
            .collect()
    }

    /// Does nothing: a handle keeps no per-action state to drop. The
    /// client's action table lets go of an action's activations when the
    /// action commits or aborts.
    pub fn forget(&self, _action: ActionId) {}
}

/// One typed invocation through `group`, an activation `client` made for
/// `action` (the shared body of [`Handle::invoke`] and
/// [`crate::Tx::invoke`]): encode the op into one pooled frame, invoke with
/// the lock intent the op implies, decode the reply.
pub(crate) fn invoke_typed<O: ObjectType>(
    client: &Client,
    action: ActionId,
    group: &ObjectGroup,
    op: O::Op,
) -> Result<O::Reply, InvokeError> {
    // Released back to the pool when the invocation finishes.
    let op_frame = client.wire().encode_with(|buf| O::encode_op(&op, buf));
    let reply = client
        .sys()
        .do_invoke(action, group, &op_frame, !O::op_is_read_only(&op))?;
    O::decode_reply(&op, &reply).ok_or(InvokeError::MalformedReply(group.uid))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_codecs_roundtrip_through_the_trait() {
        let op = CounterOp::Add(-7);
        assert_eq!(Counter::decode_op(&Counter::op_vec(&op)), Some(op));
        assert!(Counter::op_is_read_only(&CounterOp::Get));
        assert!(!Counter::op_is_read_only(&CounterOp::Add(1)));

        let op = KvOp::Put("k".into(), "v".into());
        assert_eq!(KvMap::decode_op(&KvMap::op_vec(&op)), Some(op));
        assert!(KvMap::op_is_read_only(&KvOp::Len));
        assert!(!KvMap::op_is_read_only(&KvOp::Delete("k".into())));

        let op = AccountOp::Withdraw(9);
        assert_eq!(Account::decode_op(&Account::op_vec(&op)), Some(op));
        assert!(Account::op_is_read_only(&AccountOp::Balance));
        assert!(!Account::op_is_read_only(&AccountOp::Deposit(1)));
    }

    #[test]
    fn reply_codecs_roundtrip_through_the_trait() {
        let r = -42i64;
        assert_eq!(
            Counter::decode_reply(&CounterOp::Get, &Counter::reply_vec(&r)),
            Some(r)
        );
        let r = KvReply::Value("hello".into());
        assert_eq!(
            KvMap::decode_reply(&KvOp::Get("k".into()), &KvMap::reply_vec(&r)),
            Some(r)
        );
        let r = KvReply::Len(3);
        assert_eq!(
            KvMap::decode_reply(&KvOp::Len, &KvMap::reply_vec(&r)),
            Some(r)
        );
        let r = 77u64;
        assert_eq!(
            Account::decode_reply(&AccountOp::Balance, &Account::reply_vec(&r)),
            Some(r)
        );
    }

    #[test]
    fn kv_reply_accessors() {
        assert_eq!(KvReply::Value("v".into()).value(), Some("v"));
        assert_eq!(KvReply::Value("v".into()).count(), None);
        assert_eq!(KvReply::Len(2).count(), Some(2));
        assert_eq!(KvReply::Len(2).value(), None);
    }

    #[test]
    fn describe_op_is_informative() {
        assert!(Counter::describe_op(&Counter::op_vec(&CounterOp::Add(3))).contains("Add"));
        assert!(Account::describe_op(b"\xff").contains("None"));
    }

    #[test]
    fn typed_uid_is_copy_and_displays_like_its_uid() {
        let t = TypedUid::<Counter>::assume(Uid::from_raw(9));
        let t2 = t;
        assert_eq!(t.uid(), t2.uid());
        assert_eq!(t.to_string(), Uid::from_raw(9).to_string());
        assert!(format!("{t:?}").contains("TypedUid"));
        assert_eq!(Uid::from(t), Uid::from_raw(9));
    }
}
