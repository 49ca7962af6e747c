#include "markov/markov_chain.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <type_traits>

namespace pfql {

Status MarkovChain::AddTransition(size_t from, size_t to,
                                  BigRational probability) {
  if (from >= rows_.size() || to >= rows_.size()) {
    return Status::OutOfRange("transition endpoint out of range");
  }
  if (probability.IsNegative()) {
    return Status::InvalidArgument("negative transition probability");
  }
  if (probability.IsZero()) return Status::OK();
  for (auto& [target, p] : rows_[from]) {
    if (target == to) {
      p += probability;
      return Status::OK();
    }
  }
  rows_[from].emplace_back(to, std::move(probability));
  return Status::OK();
}

Status MarkovChain::Validate() const {
  for (size_t i = 0; i < rows_.size(); ++i) {
    BigRational total;
    for (const auto& [_, p] : rows_[i]) {
      if (p.IsNegative()) {
        return Status::InvalidArgument("negative probability in row " +
                                       std::to_string(i));
      }
      total += p;
    }
    if (!total.IsOne()) {
      return Status::InvalidArgument("row " + std::to_string(i) +
                                     " sums to " + total.ToString() +
                                     " != 1");
    }
  }
  return Status::OK();
}

DenseMatrix MarkovChain::ToDenseMatrix() const {
  DenseMatrix m(num_states(), num_states(), 0.0);
  for (size_t i = 0; i < rows_.size(); ++i) {
    for (const auto& [j, p] : rows_[i]) {
      m.at(i, j) += p.ToDouble();
    }
  }
  return m;
}

std::vector<double> MarkovChain::StepDistribution(
    const std::vector<double>& v) const {
  std::vector<double> out(num_states(), 0.0);
  for (size_t i = 0; i < rows_.size(); ++i) {
    const double vi = i < v.size() ? v[i] : 0.0;
    if (vi == 0.0) continue;
    for (const auto& [j, p] : rows_[i]) {
      out[j] += vi * p.ToDouble();
    }
  }
  return out;
}

SccDecomposition MarkovChain::DecomposeScc() const {
  // Iterative Tarjan.
  const size_t n = num_states();
  SccDecomposition out;
  out.component_of.assign(n, SIZE_MAX);

  std::vector<size_t> index(n, SIZE_MAX), lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<size_t> stack;
  size_t next_index = 0;

  struct Frame {
    size_t v;
    size_t edge;
  };
  for (size_t root = 0; root < n; ++root) {
    if (index[root] != SIZE_MAX) continue;
    std::vector<Frame> call_stack{{root, 0}};
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      const size_t v = frame.v;
      if (frame.edge < rows_[v].size()) {
        const size_t w = rows_[v][frame.edge].first;
        ++frame.edge;
        if (index[w] == SIZE_MAX) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          call_stack.push_back({w, 0});
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
      } else {
        call_stack.pop_back();
        if (!call_stack.empty()) {
          const size_t parent = call_stack.back().v;
          lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
        }
        if (lowlink[v] == index[v]) {
          std::vector<size_t> comp;
          for (;;) {
            size_t w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            out.component_of[w] = out.components.size();
            comp.push_back(w);
            if (w == v) break;
          }
          std::sort(comp.begin(), comp.end());
          out.components.push_back(std::move(comp));
        }
      }
    }
  }

  // Condensation edges and bottom flags.
  std::set<std::pair<size_t, size_t>> edges;
  out.is_bottom.assign(out.components.size(), true);
  for (size_t v = 0; v < n; ++v) {
    for (const auto& [w, _] : rows_[v]) {
      size_t cv = out.component_of[v], cw = out.component_of[w];
      if (cv != cw) {
        edges.insert({cv, cw});
        out.is_bottom[cv] = false;
      }
    }
  }
  out.dag_edges.assign(edges.begin(), edges.end());
  return out;
}

bool MarkovChain::IsIrreducible() const {
  return DecomposeScc().components.size() == 1;
}

size_t MarkovChain::PeriodOf(size_t state) const {
  return PeriodOf(state, DecomposeScc());
}

size_t MarkovChain::PeriodOf(size_t state, const SccDecomposition& scc) const {
  // gcd of (level[u] + 1 - level[w]) over intra-SCC edges, levels from BFS.
  const size_t comp = scc.component_of[state];
  std::vector<int64_t> level(num_states(), -1);
  std::vector<size_t> queue{state};
  level[state] = 0;
  size_t head = 0;
  int64_t g = 0;
  while (head < queue.size()) {
    size_t v = queue[head++];
    for (const auto& [w, _] : rows_[v]) {
      if (scc.component_of[w] != comp) continue;
      if (level[w] < 0) {
        level[w] = level[v] + 1;
        queue.push_back(w);
      }
      int64_t d = level[v] + 1 - level[w];
      g = std::gcd(g, d < 0 ? -d : d);
    }
  }
  return g == 0 ? 0 : static_cast<size_t>(g);
}

bool MarkovChain::IsAperiodic() const { return IsAperiodic(DecomposeScc()); }

bool MarkovChain::IsAperiodic(const SccDecomposition& scc) const {
  for (const auto& comp : scc.components) {
    // Singleton components without a self-loop have no cycle; they impose
    // no periodicity constraint.
    if (comp.size() == 1) {
      bool has_self = false;
      for (const auto& [w, _] : rows_[comp[0]]) {
        if (w == comp[0]) has_self = true;
      }
      if (!has_self) continue;
    }
    if (PeriodOf(comp[0], scc) != 1) return false;
  }
  return true;
}

bool MarkovChain::IsErgodic() const {
  const SccDecomposition scc = DecomposeScc();
  return scc.components.size() == 1 && IsAperiodic(scc);
}

StatusOr<std::vector<double>> MarkovChain::StationaryDistribution() const {
  if (!IsIrreducible()) {
    return Status::FailedPrecondition(
        "stationary distribution requires an irreducible chain; use "
        "LongRunProbability for the general case");
  }
  const size_t n = num_states();
  // Solve (P^T - I) pi = 0 with the last equation replaced by sum(pi) = 1.
  DenseMatrix a(n, n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (const auto& [j, p] : rows_[i]) a.at(j, i) += p.ToDouble();
    a.at(i, i) -= 1.0;
  }
  std::vector<double> b(n, 0.0);
  for (size_t j = 0; j < n; ++j) a.at(n - 1, j) = 1.0;
  b[n - 1] = 1.0;
  return SolveLinearSystem(std::move(a), std::move(b));
}

StatusOr<std::vector<BigRational>> MarkovChain::ExactStationaryDistribution()
    const {
  if (!IsIrreducible()) {
    return Status::FailedPrecondition(
        "stationary distribution requires an irreducible chain");
  }
  const size_t n = num_states();
  std::vector<std::vector<BigRational>> a(n, std::vector<BigRational>(n));
  for (size_t i = 0; i < n; ++i) {
    for (const auto& [j, p] : rows_[i]) a[j][i] += p;
    a[i][i] -= BigRational(1);
  }
  std::vector<BigRational> b(n);
  for (size_t j = 0; j < n; ++j) a[n - 1][j] = BigRational(1);
  b[n - 1] = BigRational(1);
  return SolveLinearSystemField<BigRational>(std::move(a), std::move(b));
}

StatusOr<std::vector<double>> MarkovChain::StationaryByIteration(
    size_t max_iters, double tolerance) const {
  if (!IsIrreducible()) {
    return Status::FailedPrecondition(
        "stationary distribution requires an irreducible chain");
  }
  const size_t n = num_states();
  std::vector<double> current(n, 1.0 / static_cast<double>(n));
  // Iterate the lazy chain P' = (P + I)/2: it has the same stationary
  // distribution but is aperiodic, so plain power iteration converges
  // geometrically even for periodic chains (e.g. directed cycles).
  DenseMatrix p = ToDenseMatrix();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) p.at(i, j) *= 0.5;
    p.at(i, i) += 0.5;
  }
  for (size_t t = 1; t <= max_iters; ++t) {
    PFQL_ASSIGN_OR_RETURN(std::vector<double> next, p.LeftMultiply(current));
    double tv = TotalVariation(next, current);
    current = std::move(next);
    if (tv < tolerance) return current;
  }
  return Status::ResourceExhausted("power iteration did not converge in " +
                                   std::to_string(max_iters) + " iterations");
}

StatusOr<std::vector<double>> MarkovChain::DistributionAfter(
    std::vector<double> start, size_t steps) const {
  if (start.size() != num_states()) {
    return Status::InvalidArgument("start distribution size mismatch");
  }
  for (size_t t = 0; t < steps; ++t) {
    start = StepDistribution(start);
  }
  return start;
}

MarkovChain MarkovChain::RestrictTo(const std::vector<size_t>& states) const {
  std::vector<size_t> local(num_states(), SIZE_MAX);
  for (size_t i = 0; i < states.size(); ++i) local[states[i]] = i;
  MarkovChain out(states.size());
  for (size_t i = 0; i < states.size(); ++i) {
    for (const auto& [j, p] : rows_[states[i]]) {
      if (local[j] != SIZE_MAX) {
        Status st = out.AddTransition(i, local[j], p);
        (void)st;  // in-range by construction
      }
    }
  }
  return out;
}

namespace {

// Shared skeleton for absorption probabilities over field F.
template <typename F>
StatusOr<std::vector<F>> AbsorptionImpl(
    const MarkovChain& chain, const SccDecomposition& scc, size_t start,
    const std::function<F(const BigRational&)>& convert) {
  const size_t num_comps = scc.components.size();
  std::vector<F> result(num_comps, F(0));
  if (scc.is_bottom[scc.component_of[start]]) {
    result[scc.component_of[start]] = F(1);
    return result;
  }

  // One right-hand-side column per bottom component.
  std::vector<size_t> bottoms;
  std::vector<size_t> column_of(num_comps, SIZE_MAX);
  for (size_t comp = 0; comp < num_comps; ++comp) {
    if (!scc.is_bottom[comp]) continue;
    column_of[comp] = bottoms.size();
    bottoms.push_back(comp);
  }
  if constexpr (!std::is_same_v<F, double>) {
    // A walk on a finite chain leaves the transient states almost surely,
    // so with one bottom component the exact answer is 1 without a solve.
    // (The double solve keeps running: its rounded answer is the contract.)
    if (bottoms.size() == 1) {
      result[bottoms[0]] = F(1);
      return result;
    }
  }

  // Transient states = states in non-bottom components.
  std::vector<size_t> transient;
  std::vector<size_t> transient_index(chain.num_states(), SIZE_MAX);
  for (size_t v = 0; v < chain.num_states(); ++v) {
    if (!scc.is_bottom[scc.component_of[v]]) {
      transient_index[v] = transient.size();
      transient.push_back(v);
    }
  }

  // Solve (I - P_TT) H = P_TB once, one column of H per bottom component.
  const size_t m = transient.size();
  std::vector<std::vector<F>> a(m, std::vector<F>(m, F(0)));
  std::vector<std::vector<F>> b(bottoms.size(), std::vector<F>(m, F(0)));
  for (size_t ti = 0; ti < m; ++ti) {
    a[ti][ti] = F(1);
    for (const auto& [j, p] : chain.Row(transient[ti])) {
      F pj = convert(p);
      if (transient_index[j] != SIZE_MAX) {
        a[ti][transient_index[j]] = a[ti][transient_index[j]] - pj;
      } else {
        F& entry = b[column_of[scc.component_of[j]]][ti];
        entry = entry + pj;
      }
    }
  }
  PFQL_ASSIGN_OR_RETURN(
      std::vector<std::vector<F>> h,
      SolveLinearSystemFieldColumns<F>(std::move(a), std::move(b)));
  for (size_t k = 0; k < bottoms.size(); ++k) {
    result[bottoms[k]] = std::move(h[k][transient_index[start]]);
  }
  return result;
}

}  // namespace

StatusOr<std::vector<double>> MarkovChain::AbsorptionProbabilities(
    size_t start) const {
  if (start >= num_states()) return Status::OutOfRange("start out of range");
  SccDecomposition scc = DecomposeScc();
  return AbsorptionImpl<double>(
      *this, scc, start, [](const BigRational& p) { return p.ToDouble(); });
}

StatusOr<std::vector<BigRational>> MarkovChain::ExactAbsorptionProbabilities(
    size_t start) const {
  if (start >= num_states()) return Status::OutOfRange("start out of range");
  SccDecomposition scc = DecomposeScc();
  return AbsorptionImpl<BigRational>(
      *this, scc, start, [](const BigRational& p) { return p; });
}

StatusOr<double> MarkovChain::LongRunProbability(
    size_t start, const std::function<bool(size_t)>& event) const {
  if (start >= num_states()) return Status::OutOfRange("start out of range");
  SccDecomposition scc = DecomposeScc();
  PFQL_ASSIGN_OR_RETURN(
      std::vector<double> absorb,
      AbsorptionImpl<double>(*this, scc, start, [](const BigRational& p) {
        return p.ToDouble();
      }));
  double total = 0.0;
  for (size_t comp = 0; comp < scc.components.size(); ++comp) {
    if (!scc.is_bottom[comp] || absorb[comp] <= 0.0) continue;
    MarkovChain sub = RestrictTo(scc.components[comp]);
    PFQL_ASSIGN_OR_RETURN(std::vector<double> pi,
                          sub.StationaryDistribution());
    double mass = 0.0;
    for (size_t local = 0; local < scc.components[comp].size(); ++local) {
      if (event(scc.components[comp][local])) mass += pi[local];
    }
    total += absorb[comp] * mass;
  }
  return total;
}

StatusOr<BigRational> MarkovChain::ExactLongRunProbability(
    size_t start, const std::function<bool(size_t)>& event) const {
  if (start >= num_states()) return Status::OutOfRange("start out of range");
  SccDecomposition scc = DecomposeScc();
  PFQL_ASSIGN_OR_RETURN(
      std::vector<BigRational> absorb,
      AbsorptionImpl<BigRational>(*this, scc, start,
                                  [](const BigRational& p) { return p; }));
  BigRational total;
  for (size_t comp = 0; comp < scc.components.size(); ++comp) {
    if (!scc.is_bottom[comp] || absorb[comp].IsZero()) continue;
    MarkovChain sub = RestrictTo(scc.components[comp]);
    PFQL_ASSIGN_OR_RETURN(std::vector<BigRational> pi,
                          sub.ExactStationaryDistribution());
    BigRational mass;
    for (size_t local = 0; local < scc.components[comp].size(); ++local) {
      if (event(scc.components[comp][local])) mass += pi[local];
    }
    total += absorb[comp] * mass;
  }
  return total;
}

StatusOr<double> MarkovChain::ExpectedHittingTime(
    size_t start, const std::function<bool(size_t)>& target) const {
  if (start >= num_states()) return Status::OutOfRange("start out of range");
  if (target(start)) return 0.0;
  // h_i = 0 for targets; h_i = 1 + sum_j P_ij h_j otherwise. Solve over the
  // non-target states: (I - P_NN) h_N = 1.
  std::vector<size_t> non_target;
  std::vector<size_t> local(num_states(), SIZE_MAX);
  for (size_t v = 0; v < num_states(); ++v) {
    if (!target(v)) {
      local[v] = non_target.size();
      non_target.push_back(v);
    }
  }
  const size_t m = non_target.size();
  std::vector<std::vector<double>> a(m, std::vector<double>(m, 0.0));
  std::vector<double> b(m, 1.0);
  for (size_t li = 0; li < m; ++li) {
    a[li][li] = 1.0;
    for (const auto& [j, p] : rows_[non_target[li]]) {
      if (local[j] != SIZE_MAX) {
        a[li][local[j]] -= p.ToDouble();
      }
    }
  }
  PFQL_ASSIGN_OR_RETURN(std::vector<double> h,
                        SolveLinearSystemField<double>(std::move(a),
                                                       std::move(b)));
  const double result = h[local[start]];
  if (!(result >= 0.0) || !std::isfinite(result)) {
    return Status::FailedPrecondition(
        "target not reached almost surely from the start state");
  }
  return result;
}

StatusOr<double> MarkovChain::ExpectedReturnTime(size_t state) const {
  if (state >= num_states()) return Status::OutOfRange("state out of range");
  // 1 + sum_j P(state, j) * E[hit state from j]  (j = state contributes 0).
  double total = 1.0;
  for (const auto& [j, p] : rows_[state]) {
    if (j == state) continue;
    PFQL_ASSIGN_OR_RETURN(
        double h,
        ExpectedHittingTime(j, [&](size_t s) { return s == state; }));
    total += p.ToDouble() * h;
  }
  return total;
}

double MarkovChain::TotalVariation(const std::vector<double>& a,
                                   const std::vector<double>& b) {
  double sum = 0.0;
  const size_t n = std::max(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    double ai = i < a.size() ? a[i] : 0.0;
    double bi = i < b.size() ? b[i] : 0.0;
    sum += std::fabs(ai - bi);
  }
  return sum / 2.0;
}

StatusOr<size_t> MarkovChain::MixingTimeFrom(size_t start, double epsilon,
                                             size_t max_steps) const {
  if (start >= num_states()) return Status::OutOfRange("start out of range");
  if (!IsErgodic()) {
    return Status::FailedPrecondition("mixing time requires an ergodic chain");
  }
  PFQL_ASSIGN_OR_RETURN(std::vector<double> pi, StationaryDistribution());
  std::vector<double> dist(num_states(), 0.0);
  dist[start] = 1.0;
  for (size_t t = 0; t <= max_steps; ++t) {
    double max_diff = 0.0;
    for (size_t i = 0; i < num_states(); ++i) {
      max_diff = std::max(max_diff, std::fabs(dist[i] - pi[i]));
    }
    if (max_diff < epsilon) return t;
    dist = StepDistribution(dist);
  }
  return Status::ResourceExhausted("chain did not mix within " +
                                   std::to_string(max_steps) + " steps");
}

StatusOr<size_t> MarkovChain::TvMixingTimeFrom(size_t start, double epsilon,
                                               size_t max_steps) const {
  if (start >= num_states()) return Status::OutOfRange("start out of range");
  // A walk converges in distribution, from every start, exactly when the
  // chain has one bottom SCC and that SCC is aperiodic; the limit is the
  // SCC's stationary distribution (zero on transient states). An ergodic
  // chain is the case where the bottom SCC is the whole chain.
  const SccDecomposition scc = DecomposeScc();
  size_t bottom = SIZE_MAX;
  size_t num_bottom = 0;
  for (size_t comp = 0; comp < scc.components.size(); ++comp) {
    if (!scc.is_bottom[comp]) continue;
    ++num_bottom;
    bottom = comp;
  }
  if (num_bottom != 1 || PeriodOf(scc.components[bottom][0], scc) != 1) {
    return Status::FailedPrecondition(
        "total-variation mixing time requires exactly one bottom SCC, and "
        "an aperiodic one");
  }
  const std::vector<size_t>& support = scc.components[bottom];
  PFQL_ASSIGN_OR_RETURN(std::vector<double> pi_bottom,
                        RestrictTo(support).StationaryDistribution());
  std::vector<double> pi(num_states(), 0.0);
  for (size_t local = 0; local < support.size(); ++local) {
    pi[support[local]] = pi_bottom[local];
  }
  std::vector<double> dist(num_states(), 0.0);
  dist[start] = 1.0;
  for (size_t t = 0; t <= max_steps; ++t) {
    if (TotalVariation(dist, pi) < epsilon) return t;
    dist = StepDistribution(dist);
  }
  return Status::ResourceExhausted("chain did not mix within " +
                                   std::to_string(max_steps) + " steps");
}

StatusOr<size_t> MarkovChain::MixingTime(double epsilon,
                                         size_t max_steps) const {
  size_t worst = 0;
  for (size_t s = 0; s < num_states(); ++s) {
    PFQL_ASSIGN_OR_RETURN(size_t t, MixingTimeFrom(s, epsilon, max_steps));
    worst = std::max(worst, t);
  }
  return worst;
}

}  // namespace pfql
