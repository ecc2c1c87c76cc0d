//===- Manager.cpp - Volume-management hierarchy -------------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/core/Manager.h"

#include "aqua/core/Cascading.h"
#include "aqua/core/Replication.h"
#include "aqua/obs/Log.h"
#include "aqua/obs/Metrics.h"
#include "aqua/obs/Trace.h"
#include "aqua/support/StringUtils.h"

using namespace aqua;
using namespace aqua::core;
using namespace aqua::ir;

namespace {

/// Global-registry instruments, resolved once.
struct ManagerMetrics {
  obs::Counter &Runs = obs::metrics().counter("core.manage.runs");
  obs::Counter &Infeasible = obs::metrics().counter("core.manage.infeasible");
  obs::Counter &Iterations = obs::metrics().counter("core.manage.iterations");
  obs::Counter &Cascades = obs::metrics().counter("core.manage.cascades");
  obs::Counter &Replications =
      obs::metrics().counter("core.manage.replications");
  obs::Counter &LPFallbacks =
      obs::metrics().counter("core.manage.lp_fallbacks");
};

ManagerMetrics &met() {
  static ManagerMetrics M;
  return M;
}

/// Finishes a successful result: rounding plus diagnostics.
void finishResult(ManagerResult &R, const MachineSpec &Spec,
                  SolveMethod Method, VolumeAssignment Volumes) {
  R.Feasible = true;
  R.Method = Method;
  R.Volumes = std::move(Volumes);
  R.MinDispenseNl = R.Volumes.minDispenseNl(R.Graph);
  R.Rounded = roundToLeastCount(R.Graph, R.Volumes, Spec);
}

/// Least-count granularity refinement: while the mean rounding error
/// exceeds the target, replicate the fullest multi-use node -- splitting
/// its uses raises every dispensed volume, making each metered transfer a
/// larger multiple of the least count. Works for both hierarchy levels:
/// each step re-enters DAGSolve-then-LP and is kept only if it stays
/// feasible and actually improves the error.
void refineRoundingError(ManagerResult &R, const MachineSpec &Spec,
                         const ManagerOptions &Opts) {
  if (Opts.TargetMeanRoundErrorPct < 0.0 || !Opts.AllowReplication)
    return;

  // One solve through the first two hierarchy levels.
  auto SolveOnce = [&](const AssayGraph &G, SolveMethod &Method,
                       VolumeAssignment &Volumes) -> bool {
    DagSolveResult DS = dagSolve(G, Spec, Opts.DagOptions);
    if (DS.Feasible) {
      Method = SolveMethod::DagSolve;
      Volumes = std::move(DS.Volumes);
      return true;
    }
    if (!Opts.UseLPFallback)
      return false;
    LPVolumeResult LP = solveRVolLP(G, Spec, {}, Opts.LPOptions);
    if (LP.Solution.Status != lp::SolveStatus::Optimal ||
        !LP.Volumes.feasible(G, Spec))
      return false;
    Method = SolveMethod::LP;
    Volumes = std::move(LP.Volumes);
    R.LpBasis = LP.Info.OptBasis;
    R.LpShapeHash = LP.Info.ShapeHash;
    R.LpWarmStarted = LP.Info.WarmStarted;
    return true;
  };

  for (int Step = 0; Step < Opts.MaxErrorRefineSteps; ++Step) {
    if (R.Rounded.MeanRatioErrorPct <= Opts.TargetMeanRoundErrorPct)
      return;
    // The fullest node with enough uses to split: replicating it buys the
    // most headroom.
    NodeId Critical = InvalidNode;
    double Fullest = 0.0;
    for (NodeId N : R.Graph.liveNodes()) {
      if (R.Graph.outEdges(N).size() < 2 ||
          R.Graph.node(N).Kind == NodeKind::Excess)
        continue;
      if (R.Volumes.NodeVolumeNl[N] > Fullest) {
        Fullest = R.Volumes.NodeVolumeNl[N];
        Critical = N;
      }
    }
    if (Critical == InvalidNode)
      return;

    AssayGraph Backup = R.Graph;
    std::string CriticalName = R.Graph.node(Critical).Name;
    Expected<std::vector<NodeId>> Reps =
        replicateNode(R.Graph, Critical, 2, Spec);
    if (!Reps.ok()) {
      R.Graph = std::move(Backup);
      return;
    }
    SolveMethod Method = SolveMethod::DagSolve;
    VolumeAssignment Volumes;
    if (!SolveOnce(R.Graph, Method, Volumes)) {
      R.Graph = std::move(Backup);
      return;
    }
    IntegerAssignment NextRounded = roundToLeastCount(R.Graph, Volumes, Spec);
    if (NextRounded.MeanRatioErrorPct >= R.Rounded.MeanRatioErrorPct) {
      R.Graph = std::move(Backup);
      return;
    }
    R.Log += format("refine %d: replicated '%s'; mean rounding error "
                    "%.2f%% -> %.2f%%\n",
                    Step, CriticalName.c_str(), R.Rounded.MeanRatioErrorPct,
                    NextRounded.MeanRatioErrorPct);
    ++R.ReplicationsApplied;
    R.Method = Method;
    R.Volumes = std::move(Volumes);
    R.MinDispenseNl = R.Volumes.minDispenseNl(R.Graph);
    R.Rounded = std::move(NextRounded);
  }
}

/// Collects live mixes whose skew exceeds the threshold and which may
/// legally be cascaded (k-ary extreme mixes are binarized first).
std::vector<NodeId> findExtremeMixes(const AssayGraph &G,
                                     std::int64_t SkewThreshold) {
  std::vector<NodeId> Result;
  for (NodeId N : G.liveNodes()) {
    const Node &Nd = G.node(N);
    if (Nd.Kind != NodeKind::Mix || Nd.NoExcess)
      continue;
    if (mixSkew(G, N) > Rational(SkewThreshold))
      Result.push_back(N);
  }
  return Result;
}

} // namespace

ManagerResult aqua::core::manageVolumes(const AssayGraph &G,
                                        const MachineSpec &Spec,
                                        const ManagerOptions &Opts) {
  obs::SpanGuard Span("core.manage", "core");
  Span.arg("nodes", static_cast<std::uint64_t>(G.liveNodes().size()));
  met().Runs.add();
  ManagerResult R;
  R.Graph = G;

  for (int Iter = 0; Iter < Opts.MaxIterations; ++Iter) {
    met().Iterations.add();
    // ----- Level 1: DAGSolve (linear time).
    DagSolveResult DS = dagSolve(R.Graph, Spec, Opts.DagOptions);
    if (DS.Feasible) {
      R.Log += format("iter %d: DAGSolve feasible (min dispense %s nl)\n",
                      Iter, formatTrimmed(DS.MinDispenseNl, 4).c_str());
      finishResult(R, Spec, SolveMethod::DagSolve, std::move(DS.Volumes));
      refineRoundingError(R, Spec, Opts);
      return R;
    }
    R.Log += format("iter %d: DAGSolve underflow (min dispense %s nl at "
                    "edge %d)\n",
                    Iter, formatTrimmed(DS.MinDispenseNl, 4).c_str(),
                    DS.MinEdge);

    // ----- Level 2: LP on the unconstrained Figure 3 formulation, which
    // can find solutions DAGSolve's artificial constraints exclude.
    if (Opts.UseLPFallback) {
      LPVolumeResult LP = solveRVolLP(R.Graph, Spec, {}, Opts.LPOptions);
      if (LP.Solution.Status == lp::SolveStatus::Optimal &&
          LP.Volumes.feasible(R.Graph, Spec)) {
        R.Log += format("iter %d: LP feasible (min dispense %s nl)\n", Iter,
                        formatTrimmed(LP.Volumes.minDispenseNl(R.Graph), 4)
                            .c_str());
        met().LPFallbacks.add();
        R.LpBasis = LP.Info.OptBasis;
        R.LpShapeHash = LP.Info.ShapeHash;
        R.LpWarmStarted = LP.Info.WarmStarted;
        finishResult(R, Spec, SolveMethod::LP, std::move(LP.Volumes));
        refineRoundingError(R, Spec, Opts);
        return R;
      }
      R.Log += format("iter %d: LP %s\n", Iter,
                      lp::solveStatusName(LP.Solution.Status));
    }

    // ----- Level 3: transforms, then re-enter the hierarchy.
    bool Transformed = false;

    if (Opts.AllowCascading) {
      std::vector<NodeId> Extreme =
          findExtremeMixes(R.Graph, Opts.CascadeSkewThreshold);
      for (NodeId M : Extreme) {
        // A copy: the log line below reports the size before binarizeMix.
        std::vector<EdgeId> In = R.Graph.inEdges(M);
        if (In.size() > 2) {
          // A k-ary extreme mix: split into binary mixes first; the
          // extreme binary stage is cascaded on the next iteration.
          Expected<std::vector<NodeId>> BI = binarizeMix(R.Graph, M);
          if (BI.ok()) {
            R.Log += format("iter %d: binarized %zu-input mix '%s'\n", Iter,
                            In.size(), R.Graph.node(M).Name.c_str());
            Transformed = true;
          } else {
            R.Log += format("iter %d: binarize of '%s' failed: %s\n", Iter,
                            R.Graph.node(M).Name.c_str(),
                            BI.message().c_str());
          }
          continue;
        }
        EdgeId SmallE = In[0];
        if (R.Graph.edge(In[1]).Fraction < R.Graph.edge(SmallE).Fraction)
          SmallE = In[1];
        Rational F = R.Graph.edge(SmallE).Fraction;
        std::int64_t P = F.numerator(), T = F.denominator();
        int Stages = chooseCascadeStages(P, T - P, Opts.CascadeSkewThreshold,
                                         Opts.MaxCascadeStages);
        if (Stages < 2)
          continue;
        Expected<CascadeInfo> CI = cascadeMix(R.Graph, M, Stages);
        if (!CI.ok()) {
          R.Log += format("iter %d: cascade of '%s' failed: %s\n", Iter,
                          R.Graph.node(M).Name.c_str(),
                          CI.message().c_str());
          continue;
        }
        R.Log += format("iter %d: cascaded '%s' (%lld:%lld) into %d stages\n",
                        Iter, R.Graph.node(M).Name.c_str(),
                        static_cast<long long>(P),
                        static_cast<long long>(T - P), Stages);
        ++R.CascadesApplied;
        met().Cascades.add();
        Transformed = true;
      }
    }

    if (!Transformed && Opts.AllowReplication &&
        DS.MaxVnormNode != InvalidNode) {
      // Numerous uses: split the critical (capacity-pinned) node's uses
      // across replicas; on the next iteration the now-critical
      // predecessor may be replicated in turn ("another level").
      NodeId Critical = DS.MaxVnormNode;
      Expected<std::vector<NodeId>> Reps =
          replicateNode(R.Graph, Critical, 2, Spec);
      if (Reps.ok()) {
        R.Log += format("iter %d: replicated '%s' into 2 instances\n", Iter,
                        R.Graph.node(Critical).Name.c_str());
        ++R.ReplicationsApplied;
        met().Replications.add();
        Transformed = true;
      } else {
        R.Log += format("iter %d: replication of '%s' failed: %s\n", Iter,
                        R.Graph.node(Critical).Name.c_str(),
                        Reps.message().c_str());
      }
    }

    if (!Transformed) {
      R.Log += format("iter %d: no transform applicable; giving up "
                      "(regeneration backstop applies at run time)\n",
                      Iter);
      break;
    }
  }

  R.Feasible = false;
  met().Infeasible.add();
  R.Log += format("hierarchy exhausted (iteration budget %d); no static "
                  "assignment (regeneration backstop applies at run time)\n",
                  Opts.MaxIterations);
  AQUA_LOG_WARN("core",
                "hierarchy exhausted (iteration budget %d); no static "
                "assignment (regeneration backstop applies at run time)",
                Opts.MaxIterations);
  return R;
}
