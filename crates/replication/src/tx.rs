//! The typed multi-object transaction surface: [`Tx`].
//!
//! The paper's central abstraction is the atomic action that touches
//! *several* persistent replicated objects; the raw surface exposes it as
//! an [`ActionId`] threaded by hand through activate/invoke/commit calls.
//! [`Tx`] packages that thread: [`Client::begin`] opens a top-level action
//! and returns a builder, each [`Tx::invoke`] auto-activates the object on
//! first touch and applies a typed operation under the *same* action (all
//! three replication policies), and [`Tx::commit`] drives the existing
//! store two-phase commit once over the union of touched objects:
//!
//! ```rust
//! use groupview_replication::{Account, AccountOp, System};
//!
//! let sys = System::builder(7).nodes(5).build();
//! let nodes = sys.sim().nodes();
//! let a = sys.create_typed(Account::new(100), &nodes[1..4], &nodes[1..4]).unwrap();
//! let b = sys.create_typed(Account::new(100), &nodes[1..4], &nodes[1..4]).unwrap();
//! let client = sys.client(nodes[4]);
//! let (from, to) = (a.open(&client), b.open(&client));
//!
//! let mut tx = client.begin();
//! tx.invoke(&from, AccountOp::Withdraw(10)).unwrap();
//! tx.invoke(&to, AccountOp::Deposit(10)).unwrap();
//! tx.commit().unwrap();
//! ```
//!
//! Abort (explicit [`Tx::abort`], an error return, or just dropping the
//! builder) replays the action's undo-log arena in reverse, restoring every
//! touched object to its pre-transaction state. A one-object `Tx` is
//! bit-for-bit identical to the manual `begin_action`/`activate`/`invoke`
//! path — pinned by `tests/tx_surface.rs`.

use crate::error::{ActivateError, CommitError, InvokeError};
use crate::object::ObjectType;
use crate::system::Client;
use crate::typed::{invoke_typed, Handle};
use groupview_actions::ActionId;
use groupview_obs::Phase;
use groupview_sim::Cause;
use std::error::Error;
use std::fmt;

/// Any failure of a [`Tx::invoke`]: the auto-activation or the invocation
/// itself. Either way the transaction should be dropped (or
/// [`Tx::abort`]ed) — its effects so far are undone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxOpError {
    /// Activating the object for this transaction failed.
    Activate(ActivateError),
    /// The operation itself failed.
    Invoke(InvokeError),
}

impl TxOpError {
    /// The cause of the activation's or the invocation's error.
    pub fn cause(&self) -> Cause {
        match self {
            TxOpError::Activate(e) => e.cause(),
            TxOpError::Invoke(e) => e.cause(),
        }
    }
}

impl fmt::Display for TxOpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxOpError::Activate(e) => write!(f, "transaction activate: {e}"),
            TxOpError::Invoke(e) => write!(f, "transaction invoke: {e}"),
        }
    }
}

impl Error for TxOpError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TxOpError::Activate(e) => Some(e),
            TxOpError::Invoke(e) => Some(e),
        }
    }
}

impl From<ActivateError> for TxOpError {
    fn from(e: ActivateError) -> Self {
        TxOpError::Activate(e)
    }
}

impl From<InvokeError> for TxOpError {
    fn from(e: InvokeError) -> Self {
        TxOpError::Invoke(e)
    }
}

/// A typed multi-object transaction in progress. Obtained from
/// [`Client::begin`]; see the [module docs](self) for the lifecycle.
///
/// The builder owns its top-level [`ActionId`]. Consuming methods
/// ([`Tx::commit`], [`Tx::abort`]) finish the action; dropping an
/// unfinished `Tx` aborts it, so an early `?` return can never leak locks.
pub struct Tx {
    client: Client,
    action: ActionId,
    /// Server cap for auto-activations (default: all functioning servers).
    replicas: usize,
    done: bool,
}

impl fmt::Debug for Tx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tx")
            .field("action", &self.action)
            .field("objects", &self.object_count())
            .finish()
    }
}

impl Tx {
    pub(crate) fn new(client: Client, action: ActionId) -> Self {
        Tx {
            client,
            action,
            replicas: usize::MAX,
            done: false,
        }
    }

    /// Caps auto-activations at `n` server replicas per object (the default
    /// binds all functioning servers, the paper's §3.2 rule).
    pub fn with_replicas(mut self, n: usize) -> Self {
        self.replicas = n;
        self
    }

    /// The underlying action id — the escape hatch for mixing raw-surface
    /// calls (named activation, batches) into this transaction.
    pub fn action(&self) -> ActionId {
        self.action
    }

    /// The client this transaction runs on (open handles against it).
    pub fn client(&self) -> &Client {
        &self.client
    }

    /// Number of activations this transaction's action holds on its
    /// client so far.
    pub fn object_count(&self) -> usize {
        self.client.activation_count(self.action)
    }

    /// Invokes a typed operation under this transaction, activating the
    /// object through this transaction's client first if the action holds
    /// no activation of it yet. The read/write lock intent is inferred from
    /// the operation; every object is activated read-write, since a later
    /// op in the same transaction may write it. `handle` supplies only the
    /// uid and the class, so it may be opened on any client of the system.
    ///
    /// # Errors
    ///
    /// See [`TxOpError`]. On error the transaction should be dropped or
    /// aborted; committing after a failed invoke is allowed only if the
    /// caller knows the failure left no partial effect (e.g. a refused
    /// lock).
    pub fn invoke<O: ObjectType>(
        &mut self,
        handle: &Handle<O>,
        op: O::Op,
    ) -> Result<O::Reply, TxOpError> {
        let sys = self.client.sys();
        let start = sys.sim().now().as_micros();
        let uid = handle.uid();
        let group = match self.client.group_of(self.action, uid) {
            Some(group) => group,
            None => self.client.activate(self.action, uid, self.replicas)?,
        };
        let mut reply = None;
        let ops = std::slice::from_ref(&op);
        invoke_typed::<O>(&self.client, self.action, &group, ops, |r| reply = Some(r))?;
        sys.obs().span(
            self.action.raw(),
            Phase::TxInvoke,
            start,
            sys.sim().now().as_micros(),
        );
        Ok(reply.expect("one reply per op"))
    }

    /// Commits the transaction: one store two-phase commit over the union
    /// of touched objects; all-or-nothing.
    ///
    /// # Errors
    ///
    /// See [`CommitError`]; on error the action has been aborted and every
    /// touched object restored.
    pub fn commit(mut self) -> Result<(), CommitError> {
        self.done = true;
        let sys = self.client.sys().clone();
        let start = sys.sim().now().as_micros();
        let result = self.client.commit(self.action);
        sys.obs().span(
            self.action.raw(),
            Phase::TxCommit,
            start,
            sys.sim().now().as_micros(),
        );
        result
    }

    /// Aborts the transaction, restoring every touched object (the undo
    /// arena replays in reverse).
    pub fn abort(mut self) {
        self.done = true;
        self.client.abort(self.action);
    }

    /// Relinquishes the transaction **without** finishing it: returns the
    /// action id and disarms the drop-abort. This models a client crash —
    /// the action's locks and bindings stay behind exactly as a dying
    /// process would leave them, for [`Client::crash_without_cleanup`] and
    /// the cleanup machinery to account for. Not an API for normal flows;
    /// prefer [`Tx::abort`].
    pub fn leak(mut self) -> ActionId {
        self.done = true;
        self.action
    }
}

impl Drop for Tx {
    fn drop(&mut self) {
        if !self.done {
            self.client.abort(self.action);
        }
    }
}
