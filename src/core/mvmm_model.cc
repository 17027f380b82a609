#include "core/mvmm_model.h"

namespace sqp {

using internal::ThreadScratch;

MvmmModel::MvmmModel(MvmmOptions options) : options_(std::move(options)) {
  if (options_.components.empty()) {
    options_.components =
        MvmmOptions::DefaultComponents(options_.default_max_depth);
  }
}

Status MvmmModel::Train(const TrainingData& data) {
  snapshot_.reset();
  // All trained state is built off to the side as an immutable snapshot
  // (one counting pass, one maximal multi-view tree, one sigma fit; more
  // than Pst::kMaxViews components is InvalidArgument) and the model
  // serves by delegating to it.
  Result<std::shared_ptr<const ModelSnapshot>> built =
      ModelSnapshot::Build(data, options_, /*version=*/0);
  if (!built.ok()) return built.status();
  snapshot_ = std::move(built.value());
  return Status::OK();
}

const std::vector<double>& MvmmModel::sigmas() const {
  static const std::vector<double> kNone;
  return snapshot_ ? snapshot_->sigmas() : kNone;
}

const MvmmFitReport& MvmmModel::fit_report() const {
  static const MvmmFitReport kNone;
  return snapshot_ ? snapshot_->fit_report() : kNone;
}

std::vector<double> MvmmModel::MixtureWeights(
    std::span<const QueryId> context) const {
  SQP_CHECK(snapshot_ != nullptr);
  return snapshot_->MixtureWeights(context, &ThreadScratch());
}

Recommendation MvmmModel::Recommend(std::span<const QueryId> context,
                                    size_t top_n) const {
  if (snapshot_ == nullptr) return Recommendation{};
  return snapshot_->Recommend(context, top_n, &ThreadScratch());
}

bool MvmmModel::Covers(std::span<const QueryId> context) const {
  return snapshot_ != nullptr && snapshot_->Covers(context);
}

double MvmmModel::ConditionalProb(std::span<const QueryId> context,
                                  QueryId next) const {
  if (snapshot_ == nullptr) return 0.0;
  return snapshot_->ConditionalProb(context, next, &ThreadScratch());
}

ModelStats MvmmModel::Stats() const {
  if (snapshot_ != nullptr) return snapshot_->Stats();
  ModelStats stats;
  stats.name = std::string(Name());
  return stats;
}

}  // namespace sqp
