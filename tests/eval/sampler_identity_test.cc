// Seed-identity pins for every sampling path: the one-shot samplers
// (approx, both mcmc tiers, both trajectory tiers), the resumable samplers
// run to exhaustion at two quantum sizes, and the metric deltas of each
// one-shot call. Every number below is an exact recorded output for its
// seed, compared with EXPECT_EQ: a change to how a sampler splits its
// budget, forks or draws from its RNG, chunks its walkers or merges its
// tallies shows up here as a changed answer, not as noise.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "datalog/program.h"
#include "eval/inflationary.h"
#include "eval/noninflationary.h"
#include "eval/resumable.h"
#include "eval/trajectory.h"
#include "gadgets/graphs.h"
#include "util/fault_injection.h"
#include "util/metrics.h"

namespace pfql {
namespace eval {
namespace {

double Share(size_t hits, size_t samples) {
  return static_cast<double>(hits) / static_cast<double>(samples);
}

datalog::Program ReachProgram() {
  auto program = datalog::ParseProgram(R"(
    cur(0).
    c2(<X>, Y) @P :- cur(X), e(X, Y, P).
    cur(Y) :- c2(X, Y).
  )");
  EXPECT_TRUE(program.ok()) << program.status();
  return std::move(program).value();
}

Instance DiamondEdb() {
  Instance edb;
  Relation e(Schema({"i", "j", "p"}));
  e.Insert(Tuple{Value(0), Value(1), Value(1)});
  e.Insert(Tuple{Value(0), Value(2), Value(3)});
  e.Insert(Tuple{Value(1), Value(1), Value(1)});
  e.Insert(Tuple{Value(2), Value(2), Value(1)});
  edb.Set("e", std::move(e));
  return edb;
}

// A lazy 5-cycle walk: aperiodic, five states, non-uniform short-run mass.
gadgets::WalkQuery LazyCycleWalk() {
  auto wq = gadgets::RandomWalkQuery(gadgets::Cycle(5, /*lazy=*/true), 0);
  EXPECT_TRUE(wq.ok()) << wq.status();
  return std::move(wq).value();
}

uint64_t CounterValue(const char* name, const std::string& labels = "") {
  return metrics::MetricRegistry::Instance()
      .GetCounter(name, labels)
      ->Value();
}

// The one-shot sampler counters of docs/OBSERVABILITY.md, read as deltas
// around one call. (pfql_trajectory_runs_total is checked by
// TrajectoryTest.RunsCounterCountsCompletedRuns.)
struct CounterDeltas {
  uint64_t samples = 0;   // pfql_sampler_samples_total{kind}
  uint64_t steps = 0;     // pfql_sampler_steps_total{kind}
  uint64_t compiled = 0;  // pfql_compiled_steps_total{kind}
  uint64_t sched = 0;     // pfql_sched_samples_total{kind}
};

class CounterWatch {
 public:
  explicit CounterWatch(const char* kind)
      : labels_(std::string("kind=\"") + kind + "\""), before_(Read()) {}

  CounterDeltas Deltas() const {
    const CounterDeltas now = Read();
    return {now.samples - before_.samples, now.steps - before_.steps,
            now.compiled - before_.compiled, now.sched - before_.sched};
  }

 private:
  CounterDeltas Read() const {
    return {CounterValue("pfql_sampler_samples_total", labels_),
            CounterValue("pfql_sampler_steps_total", labels_),
            CounterValue("pfql_compiled_steps_total", labels_),
            CounterValue("pfql_sched_samples_total", labels_)};
  }

  const std::string labels_;
  const CounterDeltas before_;
};

void ExpectDeltas(const CounterDeltas& got, const CounterDeltas& want) {
  EXPECT_EQ(got.samples, want.samples);
  EXPECT_EQ(got.steps, want.steps);
  EXPECT_EQ(got.compiled, want.compiled);
  EXPECT_EQ(got.sched, want.sched);
}

class SamplerIdentityTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::FaultRegistry::Instance().Reset(); }
  void TearDown() override { fault::FaultRegistry::Instance().Reset(); }
};

// ---- one-shot approx (Thm 4.3) -----------------------------------------

TEST_F(SamplerIdentityTest, ApproxOneThread) {
  ApproxParams params;
  params.epsilon = 0.1;
  params.delta = 0.1;
  params.threads = 1;
  Rng rng(501);
  CounterWatch watch("approx");
  auto result = ApproxInflationary(ReachProgram(), DiamondEdb(),
                                   {"cur", Tuple{Value(2)}}, params, &rng);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->samples, 150u);
  EXPECT_EQ(result->samples_requested, 150u);
  EXPECT_EQ(result->estimate, Share(118, 150));
  EXPECT_EQ(result->total_steps, 750u);
  EXPECT_FALSE(result->degraded);
  EXPECT_EQ(rng.Next(), 7064836019699196126u);  // after one fork
  ExpectDeltas(watch.Deltas(), {150, 750, 0, 0});
}

// ---- one-shot mcmc (Thm 5.6 restart sampler) ---------------------------

struct McmcPin {
  size_t hits;
  uint64_t rng_after;
};

void ExpectMcmc(Backend backend, size_t threads, size_t max_samples,
                const McmcPin& pin) {
  const gadgets::WalkQuery wq = LazyCycleWalk();
  McmcParams params;
  params.burn_in = 3;
  params.epsilon = 0.1;
  params.delta = 0.1;
  params.threads = threads;
  params.max_samples = max_samples;
  params.backend = backend;
  Rng rng(502);
  const bool compiled = backend != Backend::kInterpreted;
  CounterWatch watch("mcmc");
  auto result = McmcForever({wq.kernel, gadgets::WalkAtNode(1)}, wq.initial,
                            params, &rng);
  ASSERT_TRUE(result.ok()) << result.status();
  const size_t budget = params.BudgetedSamples();
  EXPECT_EQ(result->samples, budget);
  EXPECT_EQ(result->samples_requested, budget);
  EXPECT_EQ(result->estimate, Share(pin.hits, budget));
  EXPECT_EQ(result->total_steps, 3 * budget);
  EXPECT_FALSE(result->degraded);
  EXPECT_EQ(result->compiled, compiled);
  EXPECT_EQ(result->compiled_states, compiled ? 5u : 0u);
  EXPECT_EQ(result->compiled_edges, compiled ? 10u : 0u);
  EXPECT_EQ(rng.Next(), pin.rng_after);
  ExpectDeltas(watch.Deltas(),
               {budget, 3 * budget, compiled ? 3 * budget : 0, 0});
}

TEST_F(SamplerIdentityTest, McmcInterpretedOneThread) {
  ExpectMcmc(Backend::kInterpreted, 1, 0, {55, 7286268904478537849u});
}

TEST_F(SamplerIdentityTest, McmcInterpretedThreeThreads) {
  ExpectMcmc(Backend::kInterpreted, 3, 0, {55, 10993456023772444511u});
}

// 1200 samples cross the 512-walker chunk boundary twice on one thread.
TEST_F(SamplerIdentityTest, McmcCompiledOneThread) {
  ExpectMcmc(Backend::kCompiled, 1, 1200, {433, 7286268904478537849u});
}

TEST_F(SamplerIdentityTest, McmcCompiledThreeThreads) {
  ExpectMcmc(Backend::kCompiled, 3, 1200, {425, 10993456023772444511u});
}

// A fault at hit 700 lands inside the second 512-walker chunk: the first
// chunk and 187 samples of the second form the completed prefix.
TEST_F(SamplerIdentityTest, McmcCompiledFaultMidChunkKeepsPrefix) {
  const gadgets::WalkQuery wq = LazyCycleWalk();
  McmcParams params;
  params.burn_in = 3;
  params.max_samples = 1200;
  params.backend = Backend::kCompiled;
  params.allow_partial = true;
  fault::ScopedFault fault(fault::points::kMcmcSample,
                           fault::FaultSpec::NthHit(700));
  Rng rng(503);
  auto result = McmcForever({wq.kernel, gadgets::WalkAtNode(1)}, wq.initial,
                            params, &rng);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->degraded);
  EXPECT_EQ(result->interruption.code(), StatusCode::kUnavailable);
  EXPECT_EQ(result->samples, 699u);
  EXPECT_EQ(result->total_steps, 3u * 699u);
  EXPECT_EQ(result->estimate, Share(262, 699));
  EXPECT_EQ(fault::FaultRegistry::Instance().HitCount(
                fault::points::kMcmcSample),
            700u);
}

// ---- one-shot trajectory (Def 3.2) --------------------------------------

constexpr size_t kSteps = 60;
constexpr size_t kRuns = 5;
constexpr size_t kCounted = 54;  // kSteps minus the 10% discard

void ExpectTrajectory(Backend backend, const std::vector<size_t>& run_hits,
                      uint64_t rng_after) {
  const gadgets::WalkQuery wq = LazyCycleWalk();
  TrajectoryParams params;
  params.steps = kSteps;
  params.runs = kRuns;
  params.backend = backend;
  Rng rng(504);
  const bool compiled = backend != Backend::kInterpreted;
  CounterWatch watch("trajectory");
  auto result = TimeAverageEstimate({wq.kernel, gadgets::WalkAtNode(1)},
                                    wq.initial, params, &rng);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->per_run.size(), kRuns);
  double total = 0.0;
  for (size_t r = 0; r < kRuns; ++r) {
    EXPECT_EQ(result->per_run[r], Share(run_hits[r], kCounted)) << "run " << r;
    total += Share(run_hits[r], kCounted);
  }
  EXPECT_EQ(result->estimate, total / static_cast<double>(kRuns));
  EXPECT_EQ(result->runs_requested, kRuns);
  EXPECT_EQ(result->total_steps, kSteps * kRuns);
  EXPECT_FALSE(result->degraded);
  EXPECT_EQ(result->compiled, compiled);
  EXPECT_EQ(rng.Next(), rng_after);  // trajectory draws from the caller's rng
  ExpectDeltas(watch.Deltas(),
               {0, kSteps * kRuns, compiled ? kSteps * kRuns : 0, 0});
}

TEST_F(SamplerIdentityTest, TrajectoryInterpreted) {
  ExpectTrajectory(Backend::kInterpreted, {5, 8, 8, 9, 15},
                   5522064550988626655u);
}

TEST_F(SamplerIdentityTest, TrajectoryCompiled) {
  ExpectTrajectory(Backend::kCompiled, {22, 7, 11, 11, 10},
                   5522064550988626655u);
}

// A general (non-tuple) event on the interpreted tier: the cursor sits on
// node 1 or node 2.
TEST_F(SamplerIdentityTest, TrajectoryInterpretedGeneralEvent) {
  const gadgets::WalkQuery wq = LazyCycleWalk();
  const EventExpr::Ptr event =
      EventExpr::Or(EventExpr::From(gadgets::WalkAtNode(1)),
                    EventExpr::From(gadgets::WalkAtNode(2)));
  TrajectoryParams params;
  params.steps = kSteps;
  params.runs = 3;
  Rng rng(505);
  auto result = TimeAverageEstimate(wq.kernel, wq.initial, event, params,
                                    &rng);
  ASSERT_TRUE(result.ok()) << result.status();
  const std::vector<size_t> run_hits = {16, 25, 21};
  ASSERT_EQ(result->per_run.size(), 3u);
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(result->per_run[r], Share(run_hits[r], kCounted)) << "run " << r;
  }
  EXPECT_EQ(rng.Next(), 10939133487305190473u);
}

// ---- resumable samplers run to exhaustion -------------------------------

struct SnapshotPin {
  double estimate;
  double ci_halfwidth;
  size_t samples;
  size_t total_steps;
  size_t runs_completed;
  std::string backend;
};

void RunToExhaustion(ResumableSampler* sampler, size_t quantum) {
  size_t quanta = 0;
  while (!sampler->Exhausted()) {
    ASSERT_TRUE(sampler->RunQuantum(quantum, nullptr).ok());
    ASSERT_LT(++quanta, 100000u);
  }
}

void ExpectSnapshot(const SamplerSnapshot& got, const SnapshotPin& want) {
  EXPECT_EQ(got.estimate, want.estimate);
  EXPECT_EQ(got.ci_halfwidth, want.ci_halfwidth);
  EXPECT_EQ(got.samples, want.samples);
  EXPECT_EQ(got.budget, want.samples);
  EXPECT_EQ(got.total_steps, want.total_steps);
  EXPECT_EQ(got.runs_completed, want.runs_completed);
  EXPECT_EQ(got.backend, want.backend);
}

void ExpectResumableApprox(size_t quantum, const SnapshotPin& pin) {
  ResumableApproxOptions options;
  options.epsilon = 0.1;
  options.delta = 0.1;
  options.seed = 506;
  ResumableApprox sampler(
      std::make_shared<const datalog::Program>(ReachProgram()),
      std::make_shared<const Instance>(DiamondEdb()),
      {"cur", Tuple{Value(2)}}, options);
  RunToExhaustion(&sampler, quantum);
  ExpectSnapshot(sampler.snapshot(), pin);
}

TEST_F(SamplerIdentityTest, ResumableApproxQuantum7) {
  ExpectResumableApprox(
      7, {0.70666666666666667, 0.099928845911378211, 150, 750, 0, ""});
}

TEST_F(SamplerIdentityTest, ResumableApproxQuantum256) {
  ExpectResumableApprox(
      256, {0.70666666666666667, 0.099928845911378211, 150, 750, 0, ""});
}

// Folds every checkpoint of every chain into one number, so the q=7 runs
// (dozens of checkpoints per chain) are pinned without a page of literals.
uint64_t CheckpointDigest(const std::vector<ChainStats>& chains) {
  uint64_t digest = 1469598103934665603ULL;
  for (const ChainStats& c : chains) {
    for (const auto& [count, sum] : c.checkpoints) {
      digest = (digest ^ count) * 1099511628211ULL;
      digest = (digest ^ static_cast<uint64_t>(sum)) * 1099511628211ULL;
    }
    digest = (digest ^ c.checkpoints.size()) * 1099511628211ULL;
  }
  return digest;
}

struct ChainPin {
  size_t count;
  double sum;
};

void ExpectResumableChains(Backend backend, size_t quantum,
                           const SnapshotPin& pin,
                           const std::vector<ChainPin>& chains,
                           uint64_t digest) {
  const gadgets::WalkQuery wq = LazyCycleWalk();
  ResumableMcmcOptions options;
  options.num_chains = 3;
  options.burn_in = 4;
  options.max_samples = 600;
  options.seed = 507;
  options.backend = backend;
  ResumableMcmcChains sampler(wq.kernel, wq.initial, gadgets::WalkAtNode(1),
                              options);
  RunToExhaustion(&sampler, quantum);
  ExpectSnapshot(sampler.snapshot(), pin);
  ASSERT_EQ(sampler.chains().size(), chains.size());
  for (size_t c = 0; c < chains.size(); ++c) {
    EXPECT_EQ(sampler.chains()[c].count, chains[c].count) << "chain " << c;
    EXPECT_EQ(sampler.chains()[c].sum, chains[c].sum) << "chain " << c;
    ASSERT_FALSE(sampler.chains()[c].checkpoints.empty());
    EXPECT_EQ(sampler.chains()[c].checkpoints.back().first, chains[c].count);
  }
  EXPECT_EQ(CheckpointDigest(sampler.chains()), digest);
}

TEST_F(SamplerIdentityTest, ResumableChainsInterpretedQuantum7) {
  ExpectResumableChains(Backend::kInterpreted, 7,
                        {0.195578231292517, 0.056007162549977528, 600, 600, 0, "interpreted"},
                        {{196, 40}, {196, 39}, {196, 36}},
                        13663302600638226903u);
}

TEST_F(SamplerIdentityTest, ResumableChainsInterpretedQuantum256) {
  ExpectResumableChains(Backend::kInterpreted, 256,
                        {0.195578231292517, 0.056007162549977528, 600, 600, 0, "interpreted"},
                        {{196, 40}, {196, 39}, {196, 36}},
                        8993520417488874912u);
}

TEST_F(SamplerIdentityTest, ResumableChainsCompiledQuantum7) {
  ExpectResumableChains(Backend::kCompiled, 7,
                        {0.21258503401360543, 0.056007162549977528, 600, 600, 0, "compiled"},
                        {{196, 34}, {196, 43}, {196, 48}},
                        12212859594235789110u);
}

TEST_F(SamplerIdentityTest, ResumableChainsCompiledQuantum256) {
  ExpectResumableChains(Backend::kCompiled, 256,
                        {0.21258503401360543, 0.056007162549977528, 600, 600, 0, "compiled"},
                        {{196, 34}, {196, 43}, {196, 48}},
                        4230507464298838465u);
}

void ExpectResumableTrajectory(Backend backend, size_t quantum,
                               const SnapshotPin& pin) {
  const gadgets::WalkQuery wq = LazyCycleWalk();
  ResumableTrajectoryOptions options;
  options.steps = 40;
  options.runs = 6;
  options.seed = 508;
  options.backend = backend;
  ResumableTrajectory sampler(wq.kernel, wq.initial, gadgets::WalkAtNode(1),
                              options);
  RunToExhaustion(&sampler, quantum);
  ExpectSnapshot(sampler.snapshot(), pin);
}

TEST_F(SamplerIdentityTest, ResumableTrajectoryInterpretedQuantum7) {
  ExpectResumableTrajectory(Backend::kInterpreted, 7,
                            {0.15740740740740741, 0.063625097532850006, 240, 240, 6,
                             "interpreted"});
}

TEST_F(SamplerIdentityTest, ResumableTrajectoryInterpretedQuantum256) {
  ExpectResumableTrajectory(Backend::kInterpreted, 256,
                            {0.15740740740740741, 0.063625097532850006, 240, 240, 6,
                             "interpreted"});
}

TEST_F(SamplerIdentityTest, ResumableTrajectoryCompiledQuantum7) {
  ExpectResumableTrajectory(Backend::kCompiled, 7,
                            {0.17592592592592593, 0.077108525934036595, 240, 240, 6,
                             "compiled"});
}

TEST_F(SamplerIdentityTest, ResumableTrajectoryCompiledQuantum256) {
  ExpectResumableTrajectory(Backend::kCompiled, 256,
                            {0.17592592592592593, 0.077108525934036595, 240, 240, 6,
                             "compiled"});
}

}  // namespace
}  // namespace eval
}  // namespace pfql
