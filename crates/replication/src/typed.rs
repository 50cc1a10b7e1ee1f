//! The typed client surface: `Handle<O>` and `TypedUid<O>`.
//!
//! The paper's model is *typed* persistent objects — counters, accounts,
//! directories — invoked through atomic actions, yet the byte-level client
//! surface ([`Client::invoke`]) asks every call site to encode operations
//! and decode replies by hand. This module closes that gap on top of the
//! [`ObjectType`] class definitions (see [`crate::object`]):
//!
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
use crate::object::ObjectType;
use crate::system::Client;
use groupview_actions::ActionId;
use groupview_store::Uid;
use std::fmt;
use std::marker::PhantomData;

/// A [`Uid`] carrying its object class at the type level, as returned by
/// `System::create_typed`. Opening it yields a [`Handle`] of the right
/// class without a turbofish.
///
/// The marker is `fn() -> O` rather than `O`: a `TypedUid` names a class,
/// it does not own an instance, so its auto traits do not depend on `O`.
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
        let mut reply = None;
        self.invoke_each(action, std::slice::from_ref(&op), |r| reply = Some(r))?;
        Ok(reply.expect("one reply per op"))
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
        let mut replies = Vec::with_capacity(ops.len());
        if !ops.is_empty() {
            self.invoke_each(action, ops, |r| replies.push(r))?;
        }
        Ok(replies)
    }

    /// Runs `ops` on the latest activation this handle's client made for
    /// `action`, handing each decoded reply to `reply` in op order.
    fn invoke_each(
        &self,
        action: ActionId,
        ops: &[O::Op],
        reply: impl FnMut(O::Reply),
    ) -> Result<(), InvokeError> {
        let group = self
            .client
            .group_of(action, self.uid)
            .ok_or(InvokeError::NotActivated(self.uid))?;
        invoke_typed::<O>(&self.client, action, &group, ops, reply)
    }

    /// Does nothing: a handle keeps no per-action state to drop. The
    /// client's action table lets go of an action's activations when the
    /// action commits or aborts.
    pub fn forget(&self, _action: ActionId) {}
}

/// One typed invocation of `ops` through `group`, an activation `client`
/// made for `action` (the shared body of [`Handle::invoke`],
/// [`Handle::invoke_batch`] and [`crate::Tx::invoke`]): encode the ops
/// straight into the one invocation frame, invoke with the strongest lock
/// intent they imply, and hand each decoded reply to `reply` in op order.
pub(crate) fn invoke_typed<O: ObjectType>(
    client: &Client,
    action: ActionId,
    group: &ObjectGroup,
    ops: &[O::Op],
    mut reply: impl FnMut(O::Reply),
) -> Result<(), InvokeError> {
    let write = !ops.iter().all(O::op_is_read_only);
    let replies = client
        .sys()
        .do_invoke(action, group, ops.len(), write, &mut |i, buf| {
            O::encode_op(&ops[i], buf)
        })?;
    for (op, bytes) in ops.iter().zip(replies.iter()) {
        reply(O::decode_reply(op, bytes).ok_or(InvokeError::MalformedReply(group.uid))?);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{Account, AccountOp, Counter, CounterOp, KvMap, KvOp, KvReply};

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
