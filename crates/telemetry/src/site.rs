//! The static site registry: every span in the workspace is opened at
//! one of these compile-time-known sites.
//!
//! Sites are an enum rather than free-form strings so the disarmed fast
//! path stays allocation-free, per-site aggregation can index flat
//! arrays, and the full site list is discoverable in one place (the
//! ROADMAP telemetry section mirrors it).

/// A statically-registered span site: one named phase of the pipeline.
///
/// Naming convention: `subsystem.phase`, matching the wire/CLI names
/// where one exists (`check`, `tpi`, `serve` …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// Building an incremental analysis session (AIG, caches, first sync).
    SessionBuild,
    /// Building the signal-probability estimator (joining points and
    /// conditioning cones of every AND).
    EstimatorBuild,
    /// One full signal-probability estimation sweep over the AIG ranks.
    EstimatorSweep,
    /// One dirty-worklist propagation drain inside a session.
    Propagate,
    /// A full observability sweep (all levels, from scratch).
    ObsFull,
    /// Never fires: observability queries always take the full sweep
    /// ([`Site::ObsFull`]). Kept only because the `perfbench` harness
    /// still reads it.
    ObsRefresh,
    /// The per-fault detection-estimate loop (all faults).
    FaultEstimate,
    /// Never fires: fault queries always take the full loop
    /// ([`Site::FaultEstimate`]). Kept only because the `perfbench`
    /// harness still reads it.
    FaultReestimate,
    /// An analyzer's fault list: universe enumeration, equivalence
    /// collapse, redundancy pruning and dominance merging.
    AnalyzerCollapse,
    /// One test-length search for `N(d, e)` (paper Sec. 5).
    TestLength,
    /// Planning a partitioned run: component extraction + class grouping.
    PartitionExtract,
    /// One partition's isolated analysis pass.
    PartitionAnalyze,
    /// Scattering per-partition results into the full-circuit arrays.
    PartitionScatter,
    /// One hill-climbing optimization run.
    OptimizeClimb,
    /// One TPI candidate scoring/ranking round.
    TpiScore,
    /// One TPI commit round (ground-truth trials of ranked candidates).
    TpiCommit,
    /// The static-analysis lint pass.
    CheckLint,
    /// Dominator-tree construction for the static report.
    CheckDominators,
    /// Fault-universe enumeration + equivalence collapse.
    CheckCollapse,
    /// Redundancy tier 1: constant-activation proofs.
    RedundancyConst,
    /// Redundancy tier 2: static-unobservability proofs.
    RedundancyUnobs,
    /// Redundancy tier 3: dominator widening to a fixpoint.
    RedundancyWiden,
    /// Redundancy tier 4: exact miter-BDD proofs.
    RedundancyBdd,
    /// Serve: decoding one request line into a typed envelope.
    ServeRead,
    /// Serve: time a request waited for a compute permit.
    ServeQueueWait,
    /// Serve: checking a warm session out of the pool.
    ServeCheckout,
    /// Serve: executing the request's ops against the session.
    ServeCompute,
    /// Serve: serializing the reply line.
    ServeSerialize,
}

impl Site {
    /// Every registered site, in declaration order (aligned with the
    /// per-site aggregation arrays).
    pub const ALL: [Site; 28] = [
        Site::SessionBuild,
        Site::EstimatorBuild,
        Site::EstimatorSweep,
        Site::Propagate,
        Site::ObsFull,
        Site::ObsRefresh,
        Site::FaultEstimate,
        Site::FaultReestimate,
        Site::AnalyzerCollapse,
        Site::TestLength,
        Site::PartitionExtract,
        Site::PartitionAnalyze,
        Site::PartitionScatter,
        Site::OptimizeClimb,
        Site::TpiScore,
        Site::TpiCommit,
        Site::CheckLint,
        Site::CheckDominators,
        Site::CheckCollapse,
        Site::RedundancyConst,
        Site::RedundancyUnobs,
        Site::RedundancyWiden,
        Site::RedundancyBdd,
        Site::ServeRead,
        Site::ServeQueueWait,
        Site::ServeCheckout,
        Site::ServeCompute,
        Site::ServeSerialize,
    ];

    /// The site's stable display name (span name in traces and reports).
    pub fn name(self) -> &'static str {
        match self {
            Site::SessionBuild => "session.build",
            Site::EstimatorBuild => "estimator.build",
            Site::EstimatorSweep => "estimator.sweep",
            Site::Propagate => "session.propagate",
            Site::ObsFull => "observe.full",
            Site::ObsRefresh => "observe.refresh",
            Site::FaultEstimate => "faults.estimate",
            Site::FaultReestimate => "faults.reestimate",
            Site::AnalyzerCollapse => "analyzer.collapse",
            Site::TestLength => "testlen",
            Site::PartitionExtract => "partition.extract",
            Site::PartitionAnalyze => "partition.analyze",
            Site::PartitionScatter => "partition.scatter",
            Site::OptimizeClimb => "optimize.climb",
            Site::TpiScore => "tpi.score",
            Site::TpiCommit => "tpi.commit",
            Site::CheckLint => "check.lint",
            Site::CheckDominators => "check.dominators",
            Site::CheckCollapse => "check.collapse",
            Site::RedundancyConst => "check.redundancy.const",
            Site::RedundancyUnobs => "check.redundancy.unobs",
            Site::RedundancyWiden => "check.redundancy.widen",
            Site::RedundancyBdd => "check.redundancy.bdd",
            Site::ServeRead => "serve.read",
            Site::ServeQueueWait => "serve.queue_wait",
            Site::ServeCheckout => "serve.checkout",
            Site::ServeCompute => "serve.compute",
            Site::ServeSerialize => "serve.serialize",
        }
    }

    /// Index into the per-site aggregation arrays (declaration order;
    /// the test below pins the alignment with [`Site::ALL`]).
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_sites_have_unique_names_and_indices() {
        let mut names: Vec<&str> = Site::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Site::ALL.len());
        for (i, s) in Site::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }
}
