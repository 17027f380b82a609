#ifndef SQP_CORE_VMM_MODEL_H_
#define SQP_CORE_VMM_MODEL_H_

#include "core/prediction_model.h"
#include "core/pst.h"

namespace sqp {

/// Configuration of one VMM (paper Section IV-B): a D-bounded back-off
/// N-gram learned as a PST, with the context-escape smoothing of Eq. 5-6.
struct VmmOptions {
  /// PST growth threshold (see PstOptions::epsilon).
  double epsilon = 0.05;
  /// Context bound D (0 = unbounded). "2-bounded VMM (0.1)" in the paper is
  /// VmmOptions{.epsilon = 0.1, .max_depth = 2}.
  size_t max_depth = 0;
  /// Minimum weighted support for a candidate context.
  uint64_t min_support = 1;
};

/// Result of matching a context against the VMM: the state used for
/// prediction plus the escape mass accumulated while bridging the context
/// disparity (paper Section IV-C.2(b)).
struct VmmMatch {
  const Pst::Node* state = nullptr;  // never null after a successful Train
  size_t matched_length = 0;         // trailing queries matched
  /// Product of escape probabilities over the dropped prefix queries; 1.0
  /// when the entire context matched a state.
  double escape_weight = 1.0;
};

namespace internal {

/// Escape mass of Eq. 5-6 for a state reached after dropping `dropped` > 0
/// prefix queries: one serving::kEscape factor per intermediate drop, then
/// the matched state's start_count/total_count ratio (or serving::kEscape
/// when the state has no observed session starts / is the root). Shared by
/// VmmModel::Match and the MVMM shared-tree path so the two cannot drift.
double EscapeMass(const Pst::Node& state, size_t dropped);

}  // namespace internal

/// Variable Memory Markov model for sequential query prediction, over the
/// PST it builds and owns. (The MVMM does not train VmmModels: its
/// components are views of one shared tree inside a ModelSnapshot.)
class VmmModel : public PredictionModel {
 public:
  explicit VmmModel(VmmOptions options = {});

  std::string_view Name() const override { return name_; }
  Status Train(const TrainingData& data) override;

  Recommendation Recommend(std::span<const QueryId> context,
                           size_t top_n) const override;
  bool Covers(std::span<const QueryId> context) const override;
  double ConditionalProb(std::span<const QueryId> context,
                         QueryId next) const override;
  ModelStats Stats() const override;

  /// Matches `context` and reports the state, matched length and escape
  /// weight. Exposed for the MVMM mixture and for tests.
  VmmMatch Match(std::span<const QueryId> context) const;

  /// Generative probability of a full query sequence (Eq. 3), including
  /// escape penalties on context disparities; the first query contributes
  /// probability 1 (paper footnote 3). The MVMM sigma fit
  /// (internal::FitSigmas) does not call it: it walks the serving
  /// snapshot's trees instead.
  double SequenceProb(std::span<const QueryId> sequence) const;

  const Pst& pst() const { return pst_; }
  const VmmOptions& options() const { return options_; }
  size_t vocabulary_size() const { return vocabulary_size_; }

 private:
  VmmOptions options_;
  std::string name_;
  Pst pst_;
  size_t vocabulary_size_ = 0;
  bool trained_ = false;
};

}  // namespace sqp

#endif  // SQP_CORE_VMM_MODEL_H_
