#ifndef SQP_CORE_MVMM_MODEL_H_
#define SQP_CORE_MVMM_MODEL_H_

#include <memory>
#include <vector>

#include "core/model_snapshot.h"
#include "core/prediction_model.h"
#include "core/vmm_model.h"

namespace sqp {

/// Mixture Variable Memory Markov model: a linearly weighted combination of
/// VMM components whose weights adapt to the online context. For a context
/// s, component D contributes weight proportional to a Gaussian of the edit
/// distance between s and the state s_D the component matched (Eq. 4); the
/// Gaussian widths are learned offline on the KL redundancy objective
/// (Eq. 7-10), fitted to the normalized mixture that is served (see
/// internal::FitSigmas).
///
/// Training builds ONE maximal shared tree (Pst::BuildShared) in which
/// every component is a view; the trained state lives in an immutable
/// ModelSnapshot (see core/model_snapshot.h), which online
/// prediction walks once per query with per-thread scratch — the same
/// snapshot type the serving layer (src/serve/) swaps atomically. The
/// model is a PredictionModel adapter over that snapshot: every query
/// delegates to it. At most Pst::kMaxViews components.
class MvmmModel : public PredictionModel {
 public:
  explicit MvmmModel(MvmmOptions options = {});

  std::string_view Name() const override { return "MVMM"; }
  Status Train(const TrainingData& data) override;
  Recommendation Recommend(std::span<const QueryId> context,
                           size_t top_n) const override;
  bool Covers(std::span<const QueryId> context) const override;
  double ConditionalProb(std::span<const QueryId> context,
                         QueryId next) const override;

  /// Stats() reports the *merged* PST accounting of the paper's Table VII:
  /// the actual shared structure — nodes stored once, plus the per-node
  /// component-membership masks.
  ModelStats Stats() const override;

  /// Per-context mixture weights (normalized); exposed for tests/benches.
  std::vector<double> MixtureWeights(std::span<const QueryId> context) const;

  /// Fitted Gaussian widths, one per component (empty until trained).
  const std::vector<double>& sigmas() const;
  /// Diagnostics of the sigma fit (default until trained).
  const MvmmFitReport& fit_report() const;
  const MvmmOptions& options() const { return options_; }
  /// The immutable trained serving state (null until trained). The
  /// serving layer publishes exactly this object to its reader threads.
  const std::shared_ptr<const ModelSnapshot>& snapshot() const {
    return snapshot_;
  }
  /// The shared multi-view tree (null until trained). Derived from the
  /// snapshot — there is no separate tree state to keep in sync.
  std::shared_ptr<const Pst> shared_pst() const {
    return snapshot_ ? snapshot_->pst() : nullptr;
  }

 private:
  MvmmOptions options_;
  std::shared_ptr<const ModelSnapshot> snapshot_;
};

}  // namespace sqp

#endif  // SQP_CORE_MVMM_MODEL_H_
