//! The `groupview` naming-and-binding service — the paper's contribution.
//!
//! For every persistent object `A`, the service maintains the two node sets
//! of §3.1:
//!
//! * `StA` — nodes whose object stores contain states of `A`
//!   (the **Object State database**, [`ObjectStateDb`]);
//! * `SvA` — nodes capable of running a server for `A`
//!   (the **Object Server database**, [`ObjectServerDb`]).
//!
//! Clients consult the Object Server database to bind to servers; servers
//! consult the Object State database to load and store object states. Both
//! databases, and the name directory ([`Directory`], §2.2), are ordinary
//! persistent objects manipulated under atomic actions, held together by
//! one [`NamingService`] (the paper's Arjuna implementation calls it the
//! *group view database*). All three are instances of one crate-private
//! table type: every entry is concurrency-controlled independently with the
//! lock modes of [`groupview_actions`], including the §4.2.1 exclude-write
//! mode, and a write logs the entry's before-image as its one undo record.
//! Other nodes reach the service through [`NamingService::remote`], which
//! runs an operation there as one RPC priced by a [`Cost`].
//!
//! The three client access schemes of §4.1 are implemented by [`Binder`]:
//!
//! 1. [`BindingScheme::Standard`] — `GetServer` as a nested action of the
//!    client action (Figure 6); `Sv` is static and failed servers are
//!    discovered "the hard way" at probe time.
//! 2. [`BindingScheme::IndependentTopLevel`] — separate top-level actions
//!    before and after the client action maintain *use lists* and prune
//!    failed servers (Figure 7).
//! 3. [`BindingScheme::NestedTopLevel`] — the same updates performed from
//!    nested top-level actions inside the client action (Figure 8).
//!
//! Recovery (§4.1.2, §4.2): [`RecoveryManager`] re-`Insert`s recovered
//! server nodes (which doubles as a quiescence check) and refreshes +
//! re-`Include`s recovered store nodes; [`CleanupDaemon`] reclaims use-list
//! entries leaked by crashed clients.

#![forbid(unsafe_code)]

pub mod binder;
pub mod cleanup;
pub mod directory;
pub mod error;
pub mod keys;
pub mod naming;
pub mod nonatomic;
pub mod recovery;
pub mod server_db;
pub mod state_db;
mod table;

pub use crate::binder::{BindRequest, Binder, Binding, BindingScheme};
pub use crate::cleanup::{CleanupDaemon, CleanupReport};
pub use crate::directory::Directory;
pub use crate::error::{BindError, DbError};
pub use crate::naming::{check_node_lists, Cost, NamingService};
pub use crate::nonatomic::{RemoteServerCache, ServerCache};
pub use crate::recovery::{Deferred, RecoveryManager, RecoveryReport};
pub use crate::server_db::{ObjectServerDb, ServerDbOps, ServerEntry};
pub use crate::state_db::{ExcludePolicy, ObjectStateDb, StateDbOps, StateEntry};
