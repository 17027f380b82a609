#include "core/model_snapshot.h"

#include <algorithm>
#include <cmath>

#include "log/shard_partitioner.h"
#include "util/math_util.h"

namespace sqp {
namespace internal {

void MergeAndRank(std::vector<ScoredQuery>* raw, size_t top_n,
                  Recommendation* rec) {
  // Stable, so a query's contributions are summed in push order (callers
  // push level-major). That makes the merged doubles deterministic and is
  // what pins the dense-accumulator walk bit-identical to this path.
  std::stable_sort(raw->begin(), raw->end(),
                   [](const ScoredQuery& a, const ScoredQuery& b) {
                     return a.query < b.query;
                   });
  size_t out = 0;
  for (size_t i = 0; i < raw->size();) {
    ScoredQuery merged = (*raw)[i];
    for (++i; i < raw->size() && (*raw)[i].query == merged.query; ++i) {
      merged.score += (*raw)[i].score;
    }
    (*raw)[out++] = merged;
  }
  raw->resize(out);
  RankTopN(raw, top_n, rec);
}

void RankTopN(std::vector<ScoredQuery>* merged, size_t top_n,
              Recommendation* rec) {
  const auto by_rank = [](const ScoredQuery& a, const ScoredQuery& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.query < b.query;
  };
  if (merged->size() > top_n) {
    std::nth_element(merged->begin(),
                     merged->begin() + static_cast<ptrdiff_t>(top_n),
                     merged->end(), by_rank);
    merged->resize(top_n);
  }
  std::sort(merged->begin(), merged->end(), by_rank);
  rec->queries.assign(merged->begin(), merged->end());
}

size_t SharedIndexDepth(const MvmmOptions& options) {
  size_t shared_depth = 0;
  for (const VmmOptions& c : options.components) {
    if (c.max_depth == 0) return 0;  // any unbounded component: unbounded
    shared_depth = std::max(shared_depth, c.max_depth);
  }
  return shared_depth;
}

namespace {

/// Training sequences (most frequent first) the sigma fit samples.
constexpr size_t kSigmaFitSampleSize = 2000;
/// The sigma fit has converged once no projected-gradient step moves any
/// log sigma by this much. The objective is a probability-weighted mean
/// log-likelihood (sample weights sum to 1) and the parameters are log
/// widths, so the test is scale-free: it reads nats per e-fold of sigma
/// whatever the corpus size or the widths' magnitude. Past it the fit only
/// creeps: with 1e-6 it ran into kMaxFitIterations on every retrain corpus
/// of the closed-loop benchmark, while 1e-4 stops in 5-9 steps there.
constexpr double kSigmaFitTolerance = 1e-4;
/// Armijo sufficient-increase fraction and the backtracking budget of one
/// ascent step (each backtrack halves the step).
constexpr double kArmijoFraction = 1e-4;
constexpr size_t kMaxBacktracks = 30;
/// Bounds on the Barzilai-Borwein step length.
constexpr double kMinStep = 1e-3;
constexpr double kMaxStep = 1e3;

/// The pseudo-test sequences of one sigma fit (Eq. 8/9) as one flat
/// table, built and owned by that fit: per sample its sampling weight and
/// context length, and per (sample, component), row-major, the Gaussian
/// table offset `c * stride + d_D(X_T)` and the generative probability
/// \hat{P}_D(X_T). Edit distances are dropped-prefix counts — small
/// integers — so the fit evaluators read g(d; sigma_D) off (component,
/// distance) lookup tables of `stride` = largest distance + 1 entries per
/// component.
struct FitTable {
  size_t k = 0;
  size_t stride = 1;
  std::vector<double> weight;    // P(X_T), normalized by the fitter
  std::vector<uint32_t> length;  // online context length |X_T| - 1
  std::vector<uint32_t> offset;  // holds d_D(X_T) until the stride is known
  std::vector<double> prob;
  size_t size() const { return weight.size(); }
};

/// The sigma-fit sample pool: the most frequent multi-query sessions,
/// deterministically ordered (frequency desc, then lexicographic).
std::vector<const AggregatedSession*> SelectWeightPool(
    const std::vector<AggregatedSession>& sessions, size_t sample_size) {
  // Pseudo-test sample: the most frequent multi-query sessions, with
  // P(X_T) proportional to their aggregated frequency (Eq. 8/9).
  std::vector<const AggregatedSession*> pool;
  for (const AggregatedSession& s : sessions) {
    if (s.queries.size() >= 2) pool.push_back(&s);
  }
  // The order is total on session content, so the kept prefix is the
  // same samples a full sort would keep.
  const size_t kept = std::min(pool.size(), sample_size);
  std::partial_sort(
      pool.begin(), pool.begin() + static_cast<ptrdiff_t>(kept), pool.end(),
      [](const AggregatedSession* a, const AggregatedSession* b) {
        if (a->frequency != b->frequency) return a->frequency > b->frequency;
        return a->queries < b->queries;
      });
  pool.resize(kept);
  return pool;
}

/// The objective of the sigma fit and its gradient in log sigma, over the
/// mixture that is served: f = sum_X P(X) log sum_D w_D(X) P_D(X), with
/// w_D the normalized Eq. 4 weights exactly as serving::ComputeWeights and
/// NormalizeWeights produce them (the same GaussianPdf values, the same
/// all-underflow fallback). Normalizing bounds f: the unnormalized pdf of
/// the paper's Eq. 8 grows without bound as a sigma goes to 0.
class FitObjective {
 public:
  explicit FitObjective(const FitTable& table) : table_(table) {}

  /// f at `sigmas`; fills `gradient` with df/d(log sigma_c). With
  /// w = g / sum g and s_c = d log g_c / d log sigma_c = d_c^2/sigma_c^2 - 1,
  /// df/d(log sigma_c) = sum_X P(X) w_c (P_c / m - 1) s_c, m = sum_D w_D P_D.
  /// A sample on the underflow fallback has sigma-free weights and adds no
  /// gradient.
  double Evaluate(const std::vector<double>& sigmas,
                  std::vector<double>* gradient) {
    const size_t k = table_.k;
    const size_t stride = table_.stride;
    g_.resize(k * stride);
    slope_.resize(k * stride);
    for (size_t c = 0; c < k; ++c) {
      const double inv_var = 1.0 / (sigmas[c] * sigmas[c]);
      for (size_t d = 0; d < stride; ++d) {
        const double dd = static_cast<double>(d);
        g_[c * stride + d] = serving::GaussianPdf(dd, sigmas[c]);
        slope_[c * stride + d] = dd * dd * inv_var - 1.0;
      }
    }
    gradient->assign(k, 0.0);
    w_.resize(k);
    double f = 0.0;
    for (size_t s = 0; s < table_.size(); ++s) {
      const uint32_t* offset = table_.offset.data() + s * k;
      const double* prob = table_.prob.data() + s * k;
      double total = 0.0;
      for (size_t c = 0; c < k; ++c) {
        w_[c] = g_[offset[c]];
        total += w_[c];
      }
      const bool fallback = total <= serving::kWeightUnderflow;
      if (fallback) {
        // serving::ComputeWeights' depth fallback: 1 + matched length.
        total = 0.0;
        for (size_t c = 0; c < k; ++c) {
          const uint32_t d = offset[c] - static_cast<uint32_t>(c * stride);
          w_[c] = 1.0 + static_cast<double>(table_.length[s] - d);
          total += w_[c];
        }
      }
      double mix = 0.0;
      for (size_t c = 0; c < k; ++c) {
        w_[c] /= total;
        mix += w_[c] * prob[c];
      }
      if (mix <= 0.0) mix = 1e-300;
      f += table_.weight[s] * std::log(mix);
      if (fallback) continue;
      const double inv_mix = 1.0 / mix;
      for (size_t c = 0; c < k; ++c) {
        (*gradient)[c] += table_.weight[s] * w_[c] *
                          (prob[c] * inv_mix - 1.0) * slope_[offset[c]];
      }
    }
    return f;
  }

 private:
  const FitTable& table_;
  std::vector<double> g_;      // g(d; sigma_c) per (component, distance)
  std::vector<double> slope_;  // d log g / d log sigma, same layout
  std::vector<double> w_;      // one sample's normalized weights
};

/// Maximizes the served-mixture objective (FitObjective) over log sigma in
/// the box [log kMinSigma, log kMaxSigma] by projected gradient ascent with
/// a Barzilai-Borwein step and Armijo backtracking, stopping once the
/// projected gradient's max-norm is below kSigmaFitTolerance (see there).
/// Normalizes the sample weights and turns the edit distances into table
/// offsets, in place; `sigmas` carries the initial point and receives the
/// fitted values.
MvmmFitReport FitSigmasFromSamples(FitTable* table,
                                   std::vector<double>* sigmas) {
  MvmmFitReport report;
  if (table->size() == 0) return report;
  const size_t k = sigmas->size();

  double weight_total = 0.0;
  for (double w : table->weight) weight_total += w;
  for (double& w : table->weight) w /= weight_total;

  uint32_t max_d = 0;
  for (uint32_t d : table->offset) max_d = std::max(max_d, d);
  table->stride = size_t{max_d} + 1;
  for (size_t i = 0; i < table->offset.size(); ++i) {
    table->offset[i] += static_cast<uint32_t>((i % k) * table->stride);
  }

  // The fit runs in theta = log sigma; every evaluated (and the returned)
  // width is clamp(exp(theta)), so the box holds in sigma bits too.
  const double lo = std::log(kMinSigma);
  const double hi = std::log(kMaxSigma);
  const auto to_sigmas = [&](const std::vector<double>& theta,
                             std::vector<double>* out) {
    out->resize(k);
    for (size_t c = 0; c < k; ++c) {
      (*out)[c] = std::clamp(std::exp(theta[c]), kMinSigma, kMaxSigma);
    }
  };
  std::vector<double> theta(k);
  for (size_t c = 0; c < k; ++c) {
    theta[c] = std::clamp(std::log((*sigmas)[c]), lo, hi);
  }

  FitObjective objective(*table);
  std::vector<double> grad;
  std::vector<double> trial(k);
  std::vector<double> trial_grad;
  std::vector<double> widths;
  to_sigmas(theta, &widths);
  double f = objective.Evaluate(widths, &grad);
  report.evaluations = 1;
  report.initial_objective = f;
  double step = 1.0;
  while (true) {
    double projected = 0.0;
    for (size_t c = 0; c < k; ++c) {
      projected = std::max(
          projected, std::fabs(std::clamp(theta[c] + grad[c], lo, hi) -
                               theta[c]));
    }
    if (projected < kSigmaFitTolerance) {
      report.converged = true;
      break;
    }
    if (report.iterations == kMaxFitIterations) break;
    ++report.iterations;

    // Backtrack along the projection arc until the step gains at least
    // kArmijoFraction of the first-order prediction.
    bool accepted = false;
    double ft = f;
    for (size_t attempt = 0; attempt < kMaxBacktracks; ++attempt) {
      double predicted = 0.0;
      for (size_t c = 0; c < k; ++c) {
        trial[c] = std::clamp(theta[c] + step * grad[c], lo, hi);
        predicted += grad[c] * (trial[c] - theta[c]);
      }
      to_sigmas(trial, &widths);
      ft = objective.Evaluate(widths, &trial_grad);
      ++report.evaluations;
      if (ft >= f + kArmijoFraction * predicted) {
        accepted = true;
        break;
      }
      step *= 0.5;
    }
    if (!accepted) break;  // no ascent left at double precision

    // Barzilai-Borwein: step = s's / -s'y for s = theta step, y = gradient
    // change (the ascent form of the BB1 length); a non-concave pair
    // restarts at the longest step.
    double ss = 0.0;
    double sy = 0.0;
    for (size_t c = 0; c < k; ++c) {
      const double sc = trial[c] - theta[c];
      ss += sc * sc;
      sy += sc * (trial_grad[c] - grad[c]);
    }
    step = sy < 0.0 ? std::clamp(ss / -sy, kMinStep, kMaxStep) : kMaxStep;
    theta.swap(trial);
    grad.swap(trial_grad);
    f = ft;
  }
  to_sigmas(theta, sigmas);
  report.final_objective = f;
  return report;
}

/// Eq. 3 chain of one pseudo-test session for every component, off one
/// tree walk per prefix: all component states lie on the recorded path, so
/// the smoothed conditional is computed once per distinct matched depth
/// instead of once per component. The final prefix is the full context,
/// whose matched depths also yield the edit distances (d = dropped prefix
/// queries). Writes the session's k distances and probabilities.
/// `scratch` holds the caller's reusable walk buffers.
void BuildWeightSample(const AggregatedSession& session,
                       std::span<const ModelSnapshot* const> trees,
                       const Pst::Node& root, const MvmmOptions& options,
                       size_t vocabulary_size, SnapshotScratch* scratch,
                       uint32_t* edit_distance, double* sequence_prob) {
  const size_t k = options.components.size();
  const std::vector<QueryId>& q = session.queries;
  std::fill(sequence_prob, sequence_prob + k, 1.0);

  std::vector<int32_t>& path = scratch->path;
  std::vector<size_t>& matched = scratch->matched;
  // Per matched depth, 0 = root.
  std::vector<double>& cond_at = scratch->cond_at;

  const uint32_t num_trees = static_cast<uint32_t>(trees.size());
  for (size_t i = 1; i < q.size(); ++i) {
    const std::span<const QueryId> prefix(q.data(), i);
    // Every matched state of the prefix lives in the tree owning it (an
    // unsharded build has just the one).
    const ModelSnapshot& tree =
        num_trees == 1 ? *trees[0] : *trees[ShardOfContext(prefix, num_trees)];
    const size_t depth = tree.SharedMatchDepths(prefix, &path, &matched);
    const std::vector<Pst::Node>& nodes = tree.pst()->nodes();
    cond_at.assign(depth + 1, -1.0);
    for (size_t c = 0; c < k; ++c) {
      const size_t m = matched[c];
      const Pst::Node& state =
          m == 0 ? root : nodes[static_cast<size_t>(path[m - 1])];
      if (cond_at[m] < 0.0) {
        cond_at[m] = SmoothedProb(state.nexts, state.total_count,
                                  vocabulary_size, q[i]);
      }
      const size_t dropped = i - m;
      const double escape = dropped == 0 ? 1.0 : EscapeMass(state, dropped);
      sequence_prob[c] *= escape * cond_at[m];
    }
    if (i + 1 == q.size()) {  // prefix == full context
      for (size_t c = 0; c < k; ++c) {
        edit_distance[c] = static_cast<uint32_t>(i - matched[c]);
      }
    }
  }
}

}  // namespace

MvmmFitReport FitSigmas(const std::vector<AggregatedSession>& sessions,
                        std::span<const ModelSnapshot* const> trees,
                        const Pst::Node& root, const MvmmOptions& options,
                        size_t vocabulary_size, std::vector<double>* sigmas) {
  const std::vector<const AggregatedSession*> pool =
      SelectWeightPool(sessions, kSigmaFitSampleSize);
  if (pool.empty()) return MvmmFitReport{};

  const size_t k = options.components.size();
  FitTable table;
  table.k = k;
  table.weight.resize(pool.size());
  table.offset.resize(pool.size() * k);
  table.prob.resize(pool.size() * k);
  table.length.resize(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    table.weight[i] = static_cast<double>(pool[i]->frequency);
    table.length[i] = static_cast<uint32_t>(pool[i]->queries.size() - 1);
  }
  SnapshotScratch scratch;
  for (size_t i = 0; i < pool.size(); ++i) {
    BuildWeightSample(*pool[i], trees, root, options, vocabulary_size,
                      &scratch, table.offset.data() + i * k,
                      table.prob.data() + i * k);
  }
  return FitSigmasFromSamples(&table, sigmas);
}

}  // namespace internal

namespace {

/// Every width a snapshot serves with must be one the Gaussian accepts.
Status CheckSigmas(const std::vector<double>& sigmas) {
  for (double sigma : sigmas) {
    if (!serving::ValidSigma(sigma)) {
      return Status::InvalidArgument("sigma must be finite and > 0");
    }
  }
  return Status::OK();
}

}  // namespace

std::vector<VmmOptions> MvmmOptions::DefaultComponents(size_t max_depth) {
  // Paper Section IV-C.2 trains "K D-bounded VMM models, {P_D, D=1..K}",
  // each "with a range of epsilon values"; Section V-D uses 11 components.
  // The default crosses D = 1..deepest with epsilon in {0.0, 0.05} and adds
  // one (deepest, 0.1) component: 11 components at the default depth 5,
  // covering both the depth and the epsilon axes of the model family.
  const size_t deepest = max_depth == 0 ? 5 : max_depth;
  std::vector<VmmOptions> components;
  components.reserve(2 * deepest + 1);
  for (size_t depth = 1; depth <= deepest; ++depth) {
    for (double epsilon : {0.0, 0.05}) {
      VmmOptions vmm;
      vmm.epsilon = epsilon;
      vmm.max_depth = depth;
      components.push_back(vmm);
    }
  }
  VmmOptions last;
  last.epsilon = 0.1;
  last.max_depth = deepest;
  components.push_back(last);
  return components;
}

Result<std::shared_ptr<const ModelSnapshot>> ModelSnapshot::Build(
    const TrainingData& data, const MvmmOptions& options, uint64_t version) {
  SQP_RETURN_IF_ERROR(internal::ValidateTrainingData(data));
  std::shared_ptr<ModelSnapshot> snapshot(new ModelSnapshot());
  snapshot->options_ = options;
  if (snapshot->options_.components.empty()) {
    snapshot->options_.components =
        MvmmOptions::DefaultComponents(snapshot->options_.default_max_depth);
  }
  const size_t k = snapshot->options_.components.size();
  if (k > Pst::kMaxViews) {
    return Status::InvalidArgument(
        "ModelSnapshot supports at most Pst::kMaxViews components");
  }
  snapshot->vocabulary_size_ = data.vocabulary_size;
  snapshot->version_ = version;

  // One shared counting pass for all components. Depth must accommodate the
  // deepest component; any unbounded component forces an unbounded index.
  const size_t need_depth = internal::SharedIndexDepth(snapshot->options_);
  const ContextIndex* index = data.substring_index;
  const bool compatible =
      index != nullptr && index->CoversSubstringDepth(need_depth);
  ContextIndex local;
  if (!compatible) {
    local.Build(*data.sessions, ContextIndex::Mode::kSubstring, need_depth);
    index = &local;
  }

  // Single-pass shared build: one maximal tree with per-node component
  // membership masks; every component becomes a pruned view of it.
  std::vector<PstOptions> views;
  views.reserve(k);
  for (const VmmOptions& c : snapshot->options_.components) {
    views.push_back(PstOptions{.epsilon = c.epsilon,
                               .max_depth = c.max_depth,
                               .min_support = c.min_support});
  }
  auto shared = std::make_shared<Pst>();
  SQP_RETURN_IF_ERROR(shared->BuildShared(*index, views));
  snapshot->pst_ = std::move(shared);

  snapshot->sigmas_.assign(k, internal::kInitialSigma);
  if (!snapshot->options_.fixed_sigmas.empty()) {
    if (snapshot->options_.fixed_sigmas.size() != k) {
      return Status::InvalidArgument(
          "fixed_sigmas must match the component count");
    }
    SQP_RETURN_IF_ERROR(CheckSigmas(snapshot->options_.fixed_sigmas));
    snapshot->sigmas_ = snapshot->options_.fixed_sigmas;
  } else if (snapshot->options_.weighting ==
             MixtureWeighting::kGaussianEditDistance) {
    const ModelSnapshot* tree = snapshot.get();
    snapshot->fit_report_ = internal::FitSigmas(
        *data.sessions, std::span<const ModelSnapshot* const>(&tree, 1),
        snapshot->pst_->root(), snapshot->options_, snapshot->vocabulary_size_,
        &snapshot->sigmas_);
  }

  return std::shared_ptr<const ModelSnapshot>(std::move(snapshot));
}

Result<std::shared_ptr<const ModelSnapshot>> ModelSnapshot::WithSigmas(
    std::vector<double> sigmas) const {
  if (sigmas.size() != num_components()) {
    return Status::InvalidArgument(
        "WithSigmas must supply one sigma per component");
  }
  SQP_RETURN_IF_ERROR(CheckSigmas(sigmas));
  std::shared_ptr<ModelSnapshot> out(new ModelSnapshot(*this));
  out->sigmas_ = std::move(sigmas);
  return std::shared_ptr<const ModelSnapshot>(std::move(out));
}

size_t ModelSnapshot::SharedMatchDepths(std::span<const QueryId> context,
                                        std::vector<int32_t>* path,
                                        std::vector<size_t>* matched) const {
  const size_t depth = pst_->MatchPath(context, path);
  const size_t k = num_components();
  matched->assign(k, 0);
  const std::vector<Pst::ViewMask>& masks = pst_->view_masks();
  for (size_t c = 0; c < k; ++c) {
    const Pst::ViewMask bit = Pst::ViewMask{1} << c;
    // View membership is ancestor-closed, so the nodes carrying this
    // component's bit form a prefix of the path.
    size_t m = depth;
    while (m > 0 &&
           (masks[static_cast<size_t>((*path)[m - 1])] & bit) == 0) {
      --m;
    }
    (*matched)[c] = m;
  }
  return depth;
}

void ModelSnapshot::Weights(size_t context_len,
                            SnapshotScratch* scratch) const {
  const size_t k = num_components();
  scratch->weights.resize(k);
  serving::ComputeWeights(options_.weighting, sigmas_.data(), k, context_len,
                          scratch->matched.data(), scratch->weights.data());
  serving::NormalizeWeights(scratch->weights.data(), k);
}

std::vector<double> ModelSnapshot::MixtureWeights(
    std::span<const QueryId> context, SnapshotScratch* scratch) const {
  SharedMatchDepths(context, &scratch->path, &scratch->matched);
  Weights(context.size(), scratch);
  return scratch->weights;
}

size_t ModelSnapshot::LevelWeights(std::span<const QueryId> context,
                                   SnapshotScratch* scratch) const {
  std::vector<int32_t>& path = scratch->path;
  std::vector<size_t>& matched = scratch->matched;
  std::vector<double>& level_weight = scratch->level_weight;
  const size_t depth = SharedMatchDepths(context, &path, &matched);
  level_weight.assign(depth, 0.0);
  if (depth == 0) return 0;  // uncovered, like its components
  Weights(context.size(), scratch);
  const std::vector<double>& weights = scratch->weights;
  const std::vector<Pst::Node>& nodes = pst_->nodes();
  for (size_t c = 0; c < num_components(); ++c) {
    if (weights[c] <= 0.0 || matched[c] == 0) continue;
    const Pst::Node& state = nodes[static_cast<size_t>(path[matched[c] - 1])];
    const size_t dropped = context.size() - matched[c];
    double lw = weights[c] *
                (dropped == 0 ? 1.0 : internal::EscapeMass(state, dropped));
    for (size_t d = matched[c]; d >= 1; --d) {
      level_weight[d - 1] += lw;
      lw *= kDefaultEscape;
    }
  }
  return depth;
}

Recommendation ModelSnapshot::Recommend(std::span<const QueryId> context,
                                        size_t top_n,
                                        SnapshotScratch* scratch) const {
  Recommendation rec;
  if (context.empty()) return rec;

  // Combine escape-weighted generative scores across components (paper
  // Section IV-C.3: predicted queries of all components are re-ranked
  // w.r.t. generative probabilities and model weights). Each component
  // also contributes its matched state's suffix ancestors at
  // escape-discounted weight (Eq. 5 applied to ranking): deep states often
  // carry very few continuations, and the recursion fills the list with
  // shallower-context candidates without disturbing the deep ranking.
  // All matched states are nested suffixes of the context, so the per-level
  // weights accumulate on one path and every state's count list is touched
  // exactly once — no per-call hash map.
  const size_t depth = LevelWeights(context, scratch);
  if (depth == 0) return rec;
  const std::vector<int32_t>& path = scratch->path;
  const std::vector<double>& level_weight = scratch->level_weight;
  std::vector<ScoredQuery>& raw = scratch->raw;
  raw.clear();
  const std::vector<Pst::Node>& nodes = pst_->nodes();
  for (size_t d = 0; d < depth; ++d) {
    if (level_weight[d] <= 0.0) continue;
    const Pst::Node& node = nodes[static_cast<size_t>(path[d])];
    if (node.total_count == 0) continue;
    const double scale =
        level_weight[d] / static_cast<double>(node.total_count);
    for (const NextQueryCount& nc : node.nexts) {
      raw.push_back(
          ScoredQuery{nc.query, scale * static_cast<double>(nc.count)});
    }
  }
  if (raw.empty()) return rec;

  rec.covered = true;
  rec.matched_length = depth;
  internal::MergeAndRank(&raw, top_n, &rec);
  return rec;
}

bool ModelSnapshot::Covers(std::span<const QueryId> context) const {
  if (context.empty()) return false;
  size_t matched = 0;
  pst_->MatchLongestSuffix(context, &matched);
  return matched >= 1;
}

double ModelSnapshot::ConditionalProb(std::span<const QueryId> context,
                                      QueryId next,
                                      SnapshotScratch* scratch) const {
  std::vector<int32_t>& path = scratch->path;
  std::vector<size_t>& matched = scratch->matched;
  std::vector<double>& cond_at = scratch->cond_at;
  const size_t depth = SharedMatchDepths(context, &path, &matched);
  Weights(context.size(), scratch);
  const std::vector<double>& weights = scratch->weights;
  const std::vector<Pst::Node>& nodes = pst_->nodes();
  cond_at.assign(depth + 1, -1.0);
  double p = 0.0;
  for (size_t c = 0; c < num_components(); ++c) {
    const size_t m = matched[c];
    const Pst::Node& state =
        m == 0 ? nodes[0] : nodes[static_cast<size_t>(path[m - 1])];
    if (cond_at[m] < 0.0) {
      cond_at[m] = internal::SmoothedProb(state.nexts, state.total_count,
                                          vocabulary_size_, next);
    }
    p += weights[c] * cond_at[m];
  }
  return p;
}

ModelStats ModelSnapshot::Stats() const {
  ModelStats stats;
  stats.name = "MVMM";
  // Merged-PST accounting (paper Section V-F.2) over the *actual* shared
  // structure: every node stored once, plus one membership mask per node.
  stats.num_states = pst_->size();
  stats.num_entries = pst_->num_entries();
  stats.memory_bytes = pst_->memory_bytes();
  return stats;
}

}  // namespace sqp
