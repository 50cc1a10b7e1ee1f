//! Group communication for `groupview`.
//!
//! Section 2.3(2) of the paper motivates why replica groups need stronger
//! communication guarantees than point-to-point RPC. Its Figure 1 scenario:
//! group `GA = {A1, A2}` invokes an operation on `GB = {B}`, and `B` fails
//! while delivering its reply so that `A1` receives it but `A2` does not —
//! "the subsequent action taken by A1 and A2 can diverge". The fix is
//! communication with
//!
//! * **reliability** — all correctly functioning members of a group receive
//!   messages intended for the group, and
//! * **ordering** — messages are received in an identical order at each
//!   functioning member (Schneider's state-machine requirements, ref \[16\]).
//!
//! This crate provides both the guaranteed flavour and the broken one:
//!
//! * [`DeliveryMode::ReliableOrdered`] — per-group total order (a sequencer
//!   number accompanies every delivery) and *survivor atomicity*: if the
//!   sender crashes mid-spray, a member that already received the message
//!   relays it to the rest, so all surviving members deliver it.
//! * [`DeliveryMode::Unreliable`] — plain per-member sends with no recovery;
//!   a sender crash mid-spray leaves the group divergent. This mode exists
//!   to *reproduce* Figure 1 (experiment E1), not to be used.
//!
//! Membership is tracked in numbered [`View`]s; [`GroupComms::refresh_view`]
//! removes crashed members.

#![forbid(unsafe_code)]

pub mod comms;
pub mod error;
pub mod member;
pub mod view;

pub use crate::comms::{DeliveryMode, GroupComms, MulticastOutcome, MulticastStats};
pub use crate::error::GroupError;
pub use crate::member::{Enrolment, GroupMember};
pub use crate::view::{GroupId, View};
