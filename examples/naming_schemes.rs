//! The three database access schemes of §4.1, side by side.
//!
//! Repeats the same faulty workload under each scheme (Figures 6, 7, 8) and
//! prints what each client experienced: how often a dead server had to be
//! discovered "the hard way", what the binding actions cost, and what state
//! the Object Server database was left in.
//!
//! ```text
//! cargo run --example naming_schemes
//! ```

use groupview::sim::SimDuration;
use groupview::workload::table::fmt_pct;
use groupview::{
    run_plan_typed, BindingScheme, Counter, FaultPlan, ModelKind, NodeId, PlanAction,
    ReplicationPolicy, System, WorkloadSpec,
};

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

fn main() {
    println!("workload: 6 clients x 10 actions, 4 server nodes, n1 crashes early\n");
    println!(
        "{:<24} {:>12} {:>12} {:>14} {:>12} {:>12}",
        "scheme", "availability", "dead probes", "msgs/action", "|Sv| after", "use lists"
    );

    for scheme in BindingScheme::ALL {
        let sys = System::builder(11)
            .nodes(10)
            .policy(ReplicationPolicy::Active)
            .scheme(scheme)
            .build();
        let servers: Vec<NodeId> = (1..=4).map(n).collect();
        let stores = [n(5), n(6)];
        let uids: Vec<_> = (0..6)
            .map(|_| {
                sys.create_typed(Counter::new(0), &servers, &stores)
                    .expect("create")
                    .uid()
            })
            .collect();

        // n1 crashes 1 ms into the workload and stays down.
        let plan = FaultPlan::new().at(SimDuration::from_millis(1), PlanAction::CrashNode(n(1)));
        let spec = WorkloadSpec::new(uids.clone(), vec![n(7), n(8), n(9)])
            .clients(6)
            .actions_per_client(10)
            .ops_per_action(2)
            .replicas(2);
        let metrics = run_plan_typed(&sys, &spec, &plan, &[ModelKind::COUNTER; 6]).metrics;

        let entry = sys.naming().server_db.entry(uids[0]).expect("entry");
        println!(
            "{:<24} {:>12} {:>12} {:>14.2} {:>12} {:>12}",
            scheme.to_string(),
            fmt_pct(metrics.availability()),
            metrics.probe_failures,
            metrics.action_messages.mean(),
            entry.servers.len(),
            if scheme.maintains_use_lists() {
                "yes"
            } else {
                "no"
            },
        );
    }

    println!(
        "\nreading the table:\n\
         - standard (Fig 6): Sv never changes, so every bind re-probes the dead n1;\n\
         - independent (Fig 7): the first client to notice prunes n1 for everyone,\n\
           at the cost of use-list bookkeeping messages;\n\
         - nested-top-level (Fig 8): same hygiene, updates issued from within\n\
           the client action;\n\
         - cached-name-server (§5): server data in a non-atomic name server —\n\
           pruned once like Fig 7/8, but with no locks and the fewest messages."
    );
}
