//! Optional event tracing for debugging protocol runs.

use crate::ids::NodeId;
use crate::time::SimTime;
use std::fmt;

/// A single traced simulation event.
///
/// Traces are only recorded when [`crate::SimConfig::trace`] is set; they are
/// invaluable when a seeded failure test misbehaves, and power the
/// `examples/failover` walk-through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A message was delivered.
    Deliver {
        /// Delivery completion time.
        at: SimTime,
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Payload size in bytes.
        bytes: usize,
        /// Raw id of the atomic action whose protocol step sent this
        /// message (see [`crate::Sim::with_active_action`]), if one was
        /// active.
        action: Option<u64>,
    },
    /// A message was lost (drop, partition, or dead destination).
    Lost {
        /// Time of the attempt.
        at: SimTime,
        /// Sending node.
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
        /// Human-readable cause.
        cause: &'static str,
        /// Raw id of the atomic action whose message was lost — the action
        /// a crash or drop aborted, if one was active at send time.
        action: Option<u64>,
    },
    /// A node crashed.
    Crash {
        /// Crash time.
        at: SimTime,
        /// The node that failed.
        node: NodeId,
    },
    /// A node recovered.
    Recover {
        /// Recovery time.
        at: SimTime,
        /// The node that came back.
        node: NodeId,
    },
    /// A link was partitioned (one event per newly blocked pair, with the
    /// smaller id first). Subsequent sends on the pair fail with
    /// [`crate::NetError::Partitioned`] until a matching [`TraceEvent::Heal`].
    Partition {
        /// Time the link was blocked.
        at: SimTime,
        /// One endpoint (the smaller id).
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// A previously partitioned link was healed.
    Heal {
        /// Time the link was restored.
        at: SimTime,
        /// One endpoint (the smaller id).
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Free-form annotation emitted by protocol layers.
    Note {
        /// Annotation time.
        at: SimTime,
        /// The annotation text.
        text: String,
    },
}

impl TraceEvent {
    /// The raw id of the atomic action that caused this event, when known.
    /// Only message events ([`TraceEvent::Deliver`]/[`TraceEvent::Lost`])
    /// carry causal attribution.
    pub fn action(&self) -> Option<u64> {
        match self {
            TraceEvent::Deliver { action, .. } | TraceEvent::Lost { action, .. } => *action,
            _ => None,
        }
    }

    /// The virtual time at which this event occurred.
    pub fn at(&self) -> SimTime {
        match self {
            TraceEvent::Deliver { at, .. }
            | TraceEvent::Lost { at, .. }
            | TraceEvent::Crash { at, .. }
            | TraceEvent::Recover { at, .. }
            | TraceEvent::Partition { at, .. }
            | TraceEvent::Heal { at, .. }
            | TraceEvent::Note { at, .. } => *at,
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Deliver {
                at,
                from,
                to,
                bytes,
                action,
            } => {
                write!(f, "[{at}] {from} -> {to} ({bytes}B)")?;
                if let Some(a) = action {
                    write!(f, " action={a}")?;
                }
                Ok(())
            }
            TraceEvent::Lost {
                at,
                from,
                to,
                cause,
                action,
            } => {
                write!(f, "[{at}] {from} -x-> {to} ({cause})")?;
                if let Some(a) = action {
                    write!(f, " action={a}")?;
                }
                Ok(())
            }
            TraceEvent::Crash { at, node } => write!(f, "[{at}] CRASH {node}"),
            TraceEvent::Recover { at, node } => write!(f, "[{at}] RECOVER {node}"),
            TraceEvent::Partition { at, a, b } => write!(f, "[{at}] PARTITION {a} -/- {b}"),
            TraceEvent::Heal { at, a, b } => write!(f, "[{at}] HEAL {a} --- {b}"),
            TraceEvent::Note { at, text } => write!(f, "[{at}] note: {text}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_extracts_time_for_all_variants() {
        let t = SimTime::from_micros(5);
        let events = [
            TraceEvent::Deliver {
                at: t,
                from: NodeId::new(0),
                to: NodeId::new(1),
                bytes: 8,
                action: Some(3),
            },
            TraceEvent::Lost {
                at: t,
                from: NodeId::new(0),
                to: NodeId::new(1),
                cause: "drop",
                action: None,
            },
            TraceEvent::Crash {
                at: t,
                node: NodeId::new(2),
            },
            TraceEvent::Recover {
                at: t,
                node: NodeId::new(2),
            },
            TraceEvent::Partition {
                at: t,
                a: NodeId::new(0),
                b: NodeId::new(1),
            },
            TraceEvent::Heal {
                at: t,
                a: NodeId::new(0),
                b: NodeId::new(1),
            },
            TraceEvent::Note {
                at: t,
                text: "hello".into(),
            },
        ];
        for e in &events {
            assert_eq!(e.at(), t);
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn action_attribution_only_on_message_events() {
        let t = SimTime::from_micros(1);
        let deliver = TraceEvent::Deliver {
            at: t,
            from: NodeId::new(0),
            to: NodeId::new(1),
            bytes: 4,
            action: Some(9),
        };
        assert_eq!(deliver.action(), Some(9));
        assert!(deliver.to_string().contains("action=9"));
        let crash = TraceEvent::Crash {
            at: t,
            node: NodeId::new(0),
        };
        assert_eq!(crash.action(), None);
    }
}
