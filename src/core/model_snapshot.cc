#include "core/model_snapshot.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

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
/// Newton iterations of the sigma fit (Eq. 10).
constexpr size_t kMaxNewtonIterations = 25;
/// The sigma fit stops once an accepted step improves the objective by
/// less than this relative amount — Newton converges in a handful of
/// iterations and the remaining budget buys only noise-level gains.
constexpr double kSigmaFitTolerance = 1e-9;

/// The pseudo-test sequences of one sigma fit (Eq. 8/9) as one flat
/// table, built and owned by that fit: per sample its sampling weight, and
/// per (sample, component), row-major, the Gaussian table offset
/// `c * stride + d_D(X_T)` and the generative probability \hat{P}_D(X_T).
/// Edit distances are dropped-prefix counts — small integers — so the fit
/// evaluators read g(d; sigma_D) off (component, distance) lookup tables
/// of `stride` = largest distance + 1 entries per component.
struct FitTable {
  size_t k = 0;
  size_t stride = 1;
  std::vector<double> weight;    // P(X_T), normalized by the fitter
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

/// f(sigma) = sum_X P(X) log sum_D g(d_D; sigma_D) P_D(X), evaluated off a
/// (component, integer-distance) Gaussian lookup table.
double Objective(const FitTable& table, const std::vector<double>& sigmas) {
  const size_t k = table.k;
  const size_t stride = table.stride;
  thread_local std::vector<double> g_table;
  g_table.assign(k * stride, 0.0);
  for (size_t c = 0; c < k; ++c) {
    for (size_t d = 0; d < stride; ++d) {
      g_table[c * stride + d] = GaussianPdf(static_cast<double>(d), sigmas[c]);
    }
  }
  double f = 0.0;
  for (size_t s = 0; s < table.size(); ++s) {
    const uint32_t* offset = table.offset.data() + s * k;
    const double* prob = table.prob.data() + s * k;
    double mix = 0.0;
    for (size_t c = 0; c < k; ++c) mix += g_table[offset[c]] * prob[c];
    if (mix <= 0.0) mix = 1e-300;
    f += table.weight[s] * std::log(mix);
  }
  return f;
}

/// Fused analytic gradient and analytic Hessian (row-major k x k) in a
/// single pass over the samples.
void FitDerivatives(const FitTable& table, const std::vector<double>& sigmas,
                    std::vector<double>* gradient,
                    std::vector<double>* hessian) {
  // For f = sum_X w log m, m = sum_c g_c P_c:
  //   grad_c = sum_X w g_c' P_c / m
  //   H_cj = sum_X w [ delta_cj g_c'' P_c / m - (g_c' P_c)(g_j' P_j) / m^2 ]
  // with g' = g (d^2/s^3 - 1/s) and g'' = g ((d^2/s^3 - 1/s)^2
  //                                          - 3 d^2/s^4 + 1/s^2).
  const size_t k = table.k;
  const size_t stride = table.stride;
  thread_local std::vector<double> g_table;   // g
  thread_local std::vector<double> gp_table;  // g'
  thread_local std::vector<double> gt_table;  // g''
  g_table.assign(k * stride, 0.0);
  gp_table.assign(k * stride, 0.0);
  gt_table.assign(k * stride, 0.0);
  for (size_t c = 0; c < k; ++c) {
    const double sigma = sigmas[c];
    for (size_t di = 0; di < stride; ++di) {
      const double d = static_cast<double>(di);
      const double g = GaussianPdf(d, sigma);
      const double a = d * d / (sigma * sigma * sigma) - 1.0 / sigma;
      const double a_prime =
          -3.0 * d * d / (sigma * sigma * sigma * sigma) +
          1.0 / (sigma * sigma);
      g_table[c * stride + di] = g;
      gp_table[c * stride + di] = g * a;
      gt_table[c * stride + di] = g * (a * a + a_prime);
    }
  }

  gradient->assign(k, 0.0);
  hessian->assign(k * k, 0.0);
  std::vector<double> u(k);  // g_c' P_c
  for (size_t s = 0; s < table.size(); ++s) {
    const uint32_t* offset = table.offset.data() + s * k;
    const double* prob = table.prob.data() + s * k;
    const double weight = table.weight[s];
    double mix = 0.0;
    for (size_t c = 0; c < k; ++c) {
      u[c] = gp_table[offset[c]] * prob[c];
      mix += g_table[offset[c]] * prob[c];
    }
    if (mix <= 0.0) continue;
    const double inv = 1.0 / mix;
    for (size_t c = 0; c < k; ++c) {
      (*gradient)[c] += weight * u[c] * inv;
      (*hessian)[c * k + c] += weight * gt_table[offset[c]] * prob[c] * inv;
      const double scaled = weight * u[c] * inv * inv;
      for (size_t j = 0; j < k; ++j) {
        (*hessian)[c * k + j] -= scaled * u[j];
      }
    }
  }
}

/// Maximizes f(sigma) = sum_X P(X) log sum_D g(d_D; sigma_D) P_D(X) by
/// damped Newton with analytic derivatives (Eq. 7-10), with a backtracking
/// gradient-ascent fallback. Normalizes the sample weights and turns the
/// edit distances into table offsets, in place; `sigmas` carries the
/// initial point and receives the fitted values.
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

  // Damped Newton with the analytic Hessian (one pass over the samples per
  // iteration); gradient-ascent fallback keeps every accepted step an
  // improvement.
  double f = Objective(*table, *sigmas);
  report.initial_objective = f;
  std::vector<double> grad;
  std::vector<double> hessian;
  for (size_t iter = 0; iter < kMaxNewtonIterations; ++iter) {
    const double f_before = f;
    FitDerivatives(*table, *sigmas, &grad, &hessian);
    double grad_norm = 0.0;
    for (double g : grad) grad_norm += g * g;
    grad_norm = std::sqrt(grad_norm);
    if (grad_norm < 1e-9) break;

    std::vector<double> step;
    bool have_newton =
        SolveLinearSystem(hessian, grad, k, &step);  // H * step = grad
    // At a maximum H is negative definite, so sigma_new = sigma - step
    // (Eq. 10). Reject the Newton direction if it is not an ascent move.
    bool accepted = false;
    if (have_newton) {
      double damping = 1.0;
      for (int attempt = 0; attempt < 8 && !accepted; ++attempt) {
        std::vector<double> trial = *sigmas;
        for (size_t i = 0; i < k; ++i) {
          trial[i] = std::max(kMinSigma, trial[i] - damping * step[i]);
        }
        const double ft = Objective(*table, trial);
        if (ft > f) {
          *sigmas = std::move(trial);
          f = ft;
          accepted = true;
          report.used_newton = true;
        }
        damping *= 0.5;
      }
    }
    if (!accepted) {
      // Backtracking gradient ascent.
      double lr = 0.5;
      for (int attempt = 0; attempt < 12 && !accepted; ++attempt) {
        std::vector<double> trial = *sigmas;
        for (size_t i = 0; i < k; ++i) {
          trial[i] = std::max(kMinSigma, trial[i] + lr * grad[i]);
        }
        const double ft = Objective(*table, trial);
        if (ft > f) {
          *sigmas = std::move(trial);
          f = ft;
          accepted = true;
        }
        lr *= 0.5;
      }
    }
    ++report.iterations;
    if (!accepted) break;  // converged (no improving step)
    // Converged: the accepted step no longer moves the objective.
    const double improvement = f - f_before;
    if (improvement < kSigmaFitTolerance * (1.0 + std::fabs(f_before))) {
      break;
    }
  }
  report.final_objective = f;
  return report;
}

/// Eq. 3 chain of one pseudo-test session for every component, off one
/// tree walk per prefix: all component states lie on the recorded path, so
/// the smoothed conditional is computed once per distinct matched depth
/// instead of once per component. The final prefix is the full context,
/// whose matched depths also yield the edit distances (d = dropped prefix
/// queries). Writes the session's k distances and probabilities.
void BuildWeightSample(const AggregatedSession& session,
                       std::span<const ModelSnapshot* const> trees,
                       const Pst::Node& root, const MvmmOptions& options,
                       size_t vocabulary_size, uint32_t* edit_distance,
                       double* sequence_prob) {
  const size_t k = options.components.size();
  const std::vector<QueryId>& q = session.queries;
  std::fill(sequence_prob, sequence_prob + k, 1.0);

  thread_local std::vector<int32_t> path;
  thread_local std::vector<size_t> matched;
  thread_local std::vector<double> cond_at;  // per matched depth, 0 = root

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
  for (size_t i = 0; i < pool.size(); ++i) {
    table.weight[i] = static_cast<double>(pool[i]->frequency);
  }
  const auto build_sample = [&](size_t i) {
    BuildWeightSample(*pool[i], trees, root, options, vocabulary_size,
                      table.offset.data() + i * k, table.prob.data() + i * k);
  };
  // Per-sample evaluation is independent and writes only its own rows, so
  // sharding it across workers leaves the result bit-identical.
  if (options.training_threads > 1 && pool.size() > 1) {
    std::vector<std::thread> workers;
    const size_t num_workers =
        std::min(options.training_threads, pool.size());
    std::atomic<size_t> next{0};
    for (size_t w = 0; w < num_workers; ++w) {
      workers.emplace_back([&] {
        while (true) {
          const size_t i = next.fetch_add(1);
          if (i >= pool.size()) return;
          build_sample(i);
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  } else {
    for (size_t i = 0; i < pool.size(); ++i) build_sample(i);
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
    local.Build(*data.sessions, ContextIndex::Mode::kSubstring, need_depth,
                snapshot->options_.training_threads);
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

  // Publish-time scratch sizing: the engines hand this to
  // SnapshotScratch::Prepare so steady-state serving never grows a buffer.
  {
    const std::vector<Pst::Node>& nodes = snapshot->pst_->nodes();
    size_t max_depth = 0;
    uint64_t entries = 0;
    for (const Pst::Node& node : nodes) {
      max_depth = std::max(max_depth, node.context.size());
      entries += node.nexts.size();
    }
    snapshot->scratch_hint_ = ScratchSizing{
        .path_depth = max_depth,
        .num_components = k,
        .raw_entries =
            static_cast<size_t>(std::min<uint64_t>(entries, 4096)),
        .dense_queries = 0,  // the full walk ranks via sort-merge
    };
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

Recommendation ModelSnapshot::Recommend(std::span<const QueryId> context,
                                        size_t top_n,
                                        SnapshotScratch* scratch) const {
  Recommendation rec;
  if (context.empty()) return rec;

  std::vector<int32_t>& path = scratch->path;
  std::vector<size_t>& matched = scratch->matched;
  std::vector<double>& level_weight = scratch->level_weight;
  std::vector<ScoredQuery>& raw = scratch->raw;

  const size_t depth = SharedMatchDepths(context, &path, &matched);
  if (depth == 0) return rec;  // uncovered, like its components
  Weights(context.size(), scratch);
  const std::vector<double>& weights = scratch->weights;

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
  raw.clear();
  const std::vector<Pst::Node>& nodes = pst_->nodes();
  level_weight.assign(depth, 0.0);
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
