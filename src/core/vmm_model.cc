#include "core/vmm_model.h"

#include <algorithm>
#include <cmath>

#include "core/serving_walk.h"
#include "util/string_util.h"

namespace sqp {
namespace {

std::string MakeName(const VmmOptions& options) {
  std::string eps = options.epsilon == 0.0
                        ? std::string("0.0")
                        : StrFormat("%g", options.epsilon);
  if (options.max_depth > 0) {
    return StrFormat("%zu-bounded VMM (%s)", options.max_depth, eps.c_str());
  }
  return StrFormat("VMM (%s)", eps.c_str());
}

}  // namespace

namespace internal {

double EscapeMass(const Pst::Node& state, size_t dropped) {
  double escape = 1.0;
  for (size_t i = 0; i + 1 < dropped; ++i) escape *= serving::kEscape;
  if (state.total_count > 0 && state.start_count > 0 &&
      state.parent >= 0) {  // a real state with observed session starts
    escape *= static_cast<double>(state.start_count) /
              static_cast<double>(state.total_count);
  } else {
    escape *= serving::kEscape;
  }
  return escape;
}

}  // namespace internal

VmmModel::VmmModel(VmmOptions options)
    : options_(options), name_(MakeName(options)) {}

Status VmmModel::Train(const TrainingData& data) {
  SQP_RETURN_IF_ERROR(internal::ValidateTrainingData(data));
  vocabulary_size_ = data.vocabulary_size;

  PstOptions pst_options;
  pst_options.epsilon = options_.epsilon;
  pst_options.max_depth = options_.max_depth;
  pst_options.min_support = options_.min_support;

  // Reuse a caller's counting pass when compatible; otherwise count
  // locally.
  const ContextIndex* index = data.substring_index;
  const bool compatible =
      index != nullptr && index->CoversSubstringDepth(options_.max_depth);
  ContextIndex local;
  if (!compatible) {
    local.Build(*data.sessions, ContextIndex::Mode::kSubstring,
                options_.max_depth);
    index = &local;
  }
  SQP_RETURN_IF_ERROR(pst_.Build(*index, pst_options));
  trained_ = true;
  return Status::OK();
}

VmmMatch VmmModel::Match(std::span<const QueryId> context) const {
  SQP_CHECK(trained_);
  VmmMatch match;
  match.state = pst_.MatchLongestSuffix(context, &match.matched_length);
  // Escape mass for the context disparity (Eq. 5-6): one escape step per
  // dropped prefix query. Intermediate suffixes are not PST states (that is
  // why they were dropped), so their Eq. 6 ratio is unavailable after
  // training; they contribute serving::kEscape. The final step lands
  // on the matched state, whose Eq. 6 ratio start_count/total_count we have.
  const size_t dropped = context.size() - match.matched_length;
  if (dropped > 0) {
    match.escape_weight = internal::EscapeMass(*match.state, dropped);
  }
  return match;
}

Recommendation VmmModel::Recommend(std::span<const QueryId> context,
                                   size_t top_n) const {
  Recommendation rec;
  if (!trained_ || context.empty()) return rec;
  const VmmMatch match = Match(context);
  if (match.matched_length == 0) return rec;  // last query unseen: uncovered
  rec.covered = true;
  rec.matched_length = match.matched_length;
  internal::FillTopN(match.state->nexts, match.state->total_count, top_n,
                     &rec);
  return rec;
}

bool VmmModel::Covers(std::span<const QueryId> context) const {
  if (!trained_ || context.empty()) return false;
  size_t matched = 0;
  pst_.MatchLongestSuffix(context, &matched);
  return matched >= 1;
}

double VmmModel::ConditionalProb(std::span<const QueryId> context,
                                 QueryId next) const {
  if (!trained_) return 0.0;
  const VmmMatch match = Match(context);
  return internal::SmoothedProb(match.state->nexts, match.state->total_count,
                                vocabulary_size_, next);
}

double VmmModel::SequenceProb(std::span<const QueryId> sequence) const {
  SQP_CHECK(trained_);
  // P(q1) = 1 by convention (paper footnote 3); each later query is scored
  // against its full prefix, with escape penalties on context disparities.
  double prob = 1.0;
  for (size_t i = 1; i < sequence.size(); ++i) {
    const std::span<const QueryId> prefix = sequence.subspan(0, i);
    const VmmMatch match = Match(prefix);
    const double conditional =
        internal::SmoothedProb(match.state->nexts, match.state->total_count,
                               vocabulary_size_, sequence[i]);
    prob *= match.escape_weight * conditional;
  }
  return prob;
}

ModelStats VmmModel::Stats() const {
  ModelStats stats;
  stats.name = std::string(Name());
  stats.num_states = pst_.size();
  stats.num_entries = pst_.num_entries();
  stats.memory_bytes = pst_.memory_bytes();
  return stats;
}

}  // namespace sqp
