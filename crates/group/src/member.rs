//! The receiving side of group communication.

use groupview_sim::Bytes;

/// A process that receives group multicasts.
///
/// Implementors are typically object replicas: `deliver` applies the
/// operation carried by `msg` and returns the reply bytes. The `seq`
/// argument is the group's total-order sequence number — every member
/// receives the same messages with the same sequence numbers, which
/// implementors may assert to validate ordering.
///
/// `msg` is a reference to the *shared* multicast buffer: the sender
/// encodes one frame and every member of the group receives the same
/// storage. Members that need to keep payload data slice it
/// ([`Bytes::slice`], reference-counted) rather than copying it out.
///
/// `deliver` must not call back into [`crate::GroupComms`] for the same
/// group (the membership table is not re-entrant); sending *new* multicasts
/// from a delivery should be done after the delivery completes.
pub trait GroupMember {
    /// Handles one delivered message, returning reply bytes.
    fn deliver(&mut self, seq: u64, msg: &Bytes) -> Bytes;

    /// What this member stands for. [`crate::GroupComms::join`] records it
    /// beside the handle, and [`crate::GroupComms::holds`] answers from
    /// that record whether an equivalent member is already enrolled — so
    /// the group's member list stays the only record of who is enrolled
    /// as what. `None` (the default) matches nothing.
    fn enrolment(&self) -> Option<Enrolment> {
        None
    }
}

/// What a [`GroupMember`] stands for: which target it applies deliveries
/// to, and which incarnation of that target it was enrolled for. Two
/// members with equal enrolments at one node are interchangeable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Enrolment {
    /// Identity of the target. A member that names its target by address
    /// must own it (hold the `Rc`), so the address cannot be reused while
    /// the member is enrolled.
    pub target: usize,
    /// The target's incarnation the member was enrolled for.
    pub incarnation: u64,
}

/// A trivial member that records what it saw; useful in tests and examples.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecordingMember {
    /// `(seq, msg)` pairs in delivery order. Messages are zero-copy slices
    /// of the multicast buffers.
    pub log: Vec<(u64, Bytes)>,
}

impl GroupMember for RecordingMember {
    fn deliver(&mut self, seq: u64, msg: &Bytes) -> Bytes {
        self.log.push((seq, msg.clone()));
        Bytes::from(format!("ack{seq}").into_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_member_logs_in_order() {
        let mut m = RecordingMember::default();
        assert_eq!(m.deliver(1, &Bytes::from_static(b"a")), b"ack1");
        assert_eq!(m.deliver(2, &Bytes::from_static(b"b")), b"ack2");
        assert_eq!(m.log.len(), 2);
        assert_eq!(m.log[0], (1, Bytes::from_static(b"a")));
        assert_eq!(m.log[1], (2, Bytes::from_static(b"b")));
    }

    #[test]
    fn recording_keeps_a_zero_copy_view_of_the_message() {
        let mut m = RecordingMember::default();
        let msg = Bytes::from(b"payload".to_vec());
        let before = groupview_sim::wire::stats();
        let _ = m.deliver(1, &msg); // the ack allocates ...
        let after = groupview_sim::wire::stats().since(before);
        assert_eq!(after.bytes_copied, 0, "... but the message is not copied");
        assert_eq!(
            m.log[0].1.as_slice().as_ptr(),
            msg.as_slice().as_ptr(),
            "log aliases the multicast buffer"
        );
    }
}
