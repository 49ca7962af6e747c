#include "datalog/engine.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <set>

#include "datalog/body_eval.h"
#include "ra/optimizer.h"

namespace pfql {
namespace datalog {

namespace {

// Names the delta of IDB predicate `pred` in compiled bodies. Datalog
// identifiers are ASCII, so no program relation can collide with it.
std::string DeltaName(const std::string& pred) { return "Δ" + pred; }

// The projection columns π_{X̄,Ȳ,P} of the paper's step: head variables in
// first-occurrence order, then the weight variable if not already present.
std::vector<std::string> ProjectionColumns(const Rule& rule) {
  std::vector<std::string> cols = rule.HeadVariables();
  if (rule.head.weight_var &&
      std::find(cols.begin(), cols.end(), *rule.head.weight_var) ==
          cols.end()) {
    cols.push_back(*rule.head.weight_var);
  }
  return cols;
}

// `e` with its children replaced.
RaExpr::Ptr WithChildren(const RaExpr& e, RaExpr::Ptr left,
                         RaExpr::Ptr right) {
  switch (e.kind()) {
    case RaExpr::Kind::kSelect:
      return RaExpr::Select(std::move(left), e.predicate());
    case RaExpr::Kind::kProject:
      return RaExpr::Project(std::move(left), e.columns());
    case RaExpr::Kind::kRename:
      return RaExpr::Rename(std::move(left), e.renames());
    case RaExpr::Kind::kExtend:
      return RaExpr::Extend(std::move(left), e.extend_column(),
                            e.extend_expr());
    case RaExpr::Kind::kRepairKey:
      return RaExpr::RepairKey(std::move(left), e.repair_spec());
    case RaExpr::Kind::kJoin:
      return RaExpr::Join(std::move(left), std::move(right));
    case RaExpr::Kind::kProduct:
      return RaExpr::Product(std::move(left), std::move(right));
    case RaExpr::Kind::kUnion:
      return RaExpr::Union(std::move(left), std::move(right));
    case RaExpr::Kind::kDifference:
      return RaExpr::Difference(std::move(left), std::move(right));
    case RaExpr::Kind::kIntersect:
      return RaExpr::Intersect(std::move(left), std::move(right));
    case RaExpr::Kind::kBase:
    case RaExpr::Kind::kConst:
      break;
  }
  return nullptr;
}

// Folds the static side of `expr`: every deterministic subtree that reads
// no relation in `dynamic` is evaluated once on `initial` and replaced by
// its value; projections onto their input's own columns are dropped.
StatusOr<RaExpr::Ptr> FoldStatic(
    const RaExpr::Ptr& expr, const Instance& initial,
    const std::set<std::string>& dynamic,
    const std::map<std::string, Schema>& schemas) {
  const std::vector<std::string> inputs = expr->InputRelations();
  const bool reads_dynamic =
      std::any_of(inputs.begin(), inputs.end(),
                  [&](const std::string& r) { return dynamic.count(r) > 0; });
  if (!reads_dynamic && !expr->IsProbabilistic()) {
    if (expr->kind() == RaExpr::Kind::kConst) return expr;
    Rng unused(0);
    PFQL_ASSIGN_OR_RETURN(Relation value, EvalSample(expr, initial, &unused));
    return RaExpr::Const(std::move(value));
  }
  if (expr->kind() == RaExpr::Kind::kBase) return expr;
  PFQL_ASSIGN_OR_RETURN(RaExpr::Ptr left,
                        FoldStatic(expr->left(), initial, dynamic, schemas));
  RaExpr::Ptr right;
  if (expr->right() != nullptr) {
    PFQL_ASSIGN_OR_RETURN(
        right, FoldStatic(expr->right(), initial, dynamic, schemas));
  }
  if (expr->kind() == RaExpr::Kind::kProject) {
    PFQL_ASSIGN_OR_RETURN(Schema input, InferSchema(left, schemas));
    if (input.columns() == expr->columns()) return left;
  }
  return WithChildren(*expr, std::move(left), std::move(right));
}

}  // namespace

// One rule, compiled: the full body for the first step, one body variant
// per IDB atom for later steps, and the head construction.
struct InflationaryPlan::RulePlan {
  RaExpr::Ptr full;
  std::vector<RaExpr::Ptr> variants;
  std::vector<size_t> variant_idb;  // the delta each variant reads
  Schema proj_schema;               // π_{X̄,Ȳ,P}
  bool proj_identity = false;       // π is the whole valuation row
  RepairKeySpec spec;
  bool probabilistic = false;
  size_t head_idb = 0;
  // Per head position: a column of the fired row, or the constant.
  std::vector<std::optional<size_t>> head_cols;
  std::vector<Value> head_consts;
};

InflationaryPlan::InflationaryPlan() = default;
InflationaryPlan::~InflationaryPlan() = default;

StatusOr<std::shared_ptr<const InflationaryPlan>> InflationaryPlan::Make(
    const Program& program, const Instance& edb) {
  std::shared_ptr<InflationaryPlan> plan(new InflationaryPlan());
  PFQL_ASSIGN_OR_RETURN(plan->initial_, program.InitialInstance(edb));

  std::map<std::string, Schema> schemas;
  for (const auto& [name, rel] : plan->initial_.relations()) {
    schemas.emplace(name, rel.schema());
  }
  std::set<std::string> dynamic;
  std::map<std::string, size_t> idb_index;
  for (const auto& pred : program.idb_predicates()) {
    idb_index.emplace(pred, plan->idb_names_.size());
    plan->delta_index_.emplace(DeltaName(pred), plan->idb_names_.size());
    plan->idb_names_.push_back(pred);
    schemas.emplace(DeltaName(pred), program.CanonicalSchema(pred));
    dynamic.insert(pred);
    dynamic.insert(DeltaName(pred));
  }
  auto compile = [&](const Rule& rule) -> StatusOr<RaExpr::Ptr> {
    PFQL_ASSIGN_OR_RETURN(RaExpr::Ptr body, CompileBody(rule, schemas));
    return FoldStatic(Optimize(body, schemas), plan->initial_, dynamic,
                      schemas);
  };

  for (const Rule& rule : program.rules()) {
    RulePlan rp;
    PFQL_ASSIGN_OR_RETURN(rp.full, compile(rule));
    for (size_t a = 0; a < rule.body.size(); ++a) {
      auto idb = idb_index.find(rule.body[a].predicate);
      if (idb == idb_index.end()) continue;
      Rule redirected = rule;
      redirected.body[a].predicate = DeltaName(rule.body[a].predicate);
      PFQL_ASSIGN_OR_RETURN(RaExpr::Ptr variant, compile(redirected));
      rp.variants.push_back(std::move(variant));
      rp.variant_idb.push_back(idb->second);
    }
    const std::vector<std::string> cols = ProjectionColumns(rule);
    rp.proj_identity = cols == rule.BodyVariables();
    rp.proj_schema = Schema(cols);
    rp.spec.key_columns = rule.KeyVariables();
    rp.spec.weight_column = rule.head.weight_var;
    rp.probabilistic = rule.head.IsProbabilistic();
    rp.head_idb = idb_index.at(rule.head.predicate);
    for (const Term& term : rule.head.terms) {
      if (term.IsVar()) {
        auto idx = rp.proj_schema.IndexOf(term.var);
        if (!idx) {
          return Status::NotFound("head variable '" + term.var +
                                  "' missing from binding schema " +
                                  rp.proj_schema.ToString());
        }
        rp.head_cols.push_back(*idx);
        rp.head_consts.emplace_back();
      } else {
        rp.head_cols.push_back(std::nullopt);
        rp.head_consts.push_back(term.value);
      }
    }
    plan->rules_.push_back(std::move(rp));
  }
  return std::shared_ptr<const InflationaryPlan>(std::move(plan));
}

StatusOr<bool> InflationaryPlan::NewValuations(
    const Instance& db, const std::vector<Relation>* deltas,
    std::vector<Relation>* fired) const {
  const RelationLookup lookup =
      [&](const std::string& name) -> const Relation* {
    if (deltas != nullptr) {
      auto it = delta_index_.find(name);
      if (it != delta_index_.end()) return &(*deltas)[it->second];
    }
    return db.Find(name);
  };
  Rng unused(0);  // bodies hold no repair-key
  fired->clear();
  fired->reserve(rules_.size());
  bool any_new = false;
  for (const RulePlan& rp : rules_) {
    Relation vals;
    if (deltas == nullptr) {
      PFQL_ASSIGN_OR_RETURN(vals, EvalSample(rp.full, lookup, &unused));
    } else {
      for (size_t v = 0; v < rp.variants.size(); ++v) {
        if ((*deltas)[rp.variant_idb[v]].empty()) continue;
        PFQL_ASSIGN_OR_RETURN(Relation part,
                              EvalSample(rp.variants[v], lookup, &unused));
        if (vals.empty()) {
          vals = std::move(part);
        } else if (!part.empty()) {
          PFQL_ASSIGN_OR_RETURN(vals, vals.UnionWith(part));
        }
      }
    }
    if (vals.empty()) {
      fired->emplace_back(rp.proj_schema);
      continue;
    }
    any_new = true;
    if (rp.proj_identity) {
      fired->push_back(std::move(vals));
      continue;
    }
    PFQL_ASSIGN_OR_RETURN(Relation projected,
                          Project(vals, rp.proj_schema.columns()));
    fired->push_back(std::move(projected));
  }
  return any_new;
}

bool InflationaryPlan::IsProbabilistic(size_t rule) const {
  return rules_[rule].probabilistic;
}

const RepairKeySpec& InflationaryPlan::Spec(size_t rule) const {
  return rules_[rule].spec;
}

void InflationaryPlan::AddHeads(size_t rule, const std::vector<Tuple>& chosen,
                                HeadTuples* heads) const {
  const RulePlan& rp = rules_[rule];
  std::vector<Tuple>& out = (*heads)[rp.head_idb];
  for (const Tuple& row : chosen) {
    Tuple head;
    for (size_t i = 0; i < rp.head_cols.size(); ++i) {
      head.Append(rp.head_cols[i] ? row[*rp.head_cols[i]]
                                  : rp.head_consts[i]);
    }
    out.push_back(std::move(head));
  }
}

std::vector<Relation> InflationaryPlan::Apply(HeadTuples heads,
                                              Instance* db) const {
  std::vector<Relation> deltas;
  deltas.reserve(idb_names_.size());
  for (size_t i = 0; i < idb_names_.size(); ++i) {
    const Relation* current = db->Find(idb_names_[i]);
    RelationBuilder fresh(current->schema());
    for (Tuple& t : heads[i]) {
      if (!current->Contains(t)) fresh.Add(std::move(t));
    }
    // Arity is fixed by the program, so sealing cannot fail.
    Relation delta = std::move(fresh.Seal()).value();
    if (!delta.empty()) {
      db->FindMutable(idb_names_[i])->InsertAll(delta.tuples());
    }
    deltas.push_back(std::move(delta));
  }
  return deltas;
}

// ---- Sampling ------------------------------------------------------------

InflationaryEngine::InflationaryEngine(
    std::shared_ptr<const InflationaryPlan> plan)
    : plan_(std::move(plan)), db_(plan_->initial()) {}

StatusOr<InflationaryEngine> InflationaryEngine::Make(Program program,
                                                      const Instance& edb) {
  PFQL_ASSIGN_OR_RETURN(std::shared_ptr<const InflationaryPlan> plan,
                        InflationaryPlan::Make(program, edb));
  return InflationaryEngine(std::move(plan));
}

StatusOr<bool> InflationaryEngine::SampleStep(Rng* rng) {
  // Phase 1: newVals of every rule against the *old* state.
  std::vector<Relation> fired;
  PFQL_ASSIGN_OR_RETURN(
      bool any_new,
      plan_->NewValuations(db_, steps_ == 0 ? nullptr : &deltas_, &fired));
  if (!any_new) return false;

  // Phase 2: fire the rules, sampling each repair-key choice.
  InflationaryPlan::HeadTuples heads(plan_->idb_count());
  for (size_t r = 0; r < fired.size(); ++r) {
    if (fired[r].empty()) continue;
    if (plan_->IsProbabilistic(r)) {
      PFQL_ASSIGN_OR_RETURN(Relation repaired,
                            RepairKeySample(fired[r], plan_->Spec(r), rng));
      plan_->AddHeads(r, repaired.tuples(), &heads);
    } else {
      plan_->AddHeads(r, fired[r].tuples(), &heads);
    }
  }
  deltas_ = plan_->Apply(std::move(heads), &db_);
  ++steps_;
  return true;
}

StatusOr<Instance> InflationaryEngine::RunToFixpoint(Rng* rng,
                                                     size_t max_steps) {
  for (size_t i = 0; i < max_steps; ++i) {
    PFQL_ASSIGN_OR_RETURN(bool fired, SampleStep(rng));
    if (!fired) return db_;
  }
  return Status::ResourceExhausted("no fixpoint within " +
                                   std::to_string(max_steps) + " steps");
}

// ---- Exact traversal -----------------------------------------------------

namespace {

// Exhaustive traversal of the computation tree. Choice points (one per
// repair-key group per fired rule) are iterated lazily and a node keeps
// only its state and the deltas that produced it, so memory stays
// proportional to tree depth (Prop 4.4).
class ExactTraversal {
 public:
  ExactTraversal(const InflationaryPlan& plan,
                 const ExactInflationaryOptions& options,
                 std::function<Status(const Instance&, const BigRational&)>
                     on_fixpoint)
      : plan_(plan),
        options_(options),
        on_fixpoint_(std::move(on_fixpoint)),
        poller_(options.cancel) {}

  Status Run() {
    return Visit(plan_.initial(), nullptr, BigRational(1));
  }

  size_t nodes_visited() const { return nodes_; }

 private:
  // One probabilistic choice point within a step.
  struct ChoicePoint {
    size_t rule;
    RepairKeyGroup group;
  };

  Status Visit(const Instance& db, const std::vector<Relation>* deltas,
               BigRational prob) {
    if (++nodes_ > options_.max_nodes) {
      return Status::ResourceExhausted(
          "exact evaluation exceeded max_nodes = " +
          std::to_string(options_.max_nodes) + " (visited " +
          std::to_string(nodes_) + " nodes)");
    }
    PFQL_RETURN_NOT_OK(poller_.Tick());

    std::vector<Relation> fired;
    PFQL_ASSIGN_OR_RETURN(bool any_new,
                          plan_.NewValuations(db, deltas, &fired));
    if (!any_new) return on_fixpoint_(db, prob);

    // Deterministic heads are common to every child; probabilistic rules
    // contribute one choice point per repair-key group.
    InflationaryPlan::HeadTuples heads(plan_.idb_count());
    std::vector<ChoicePoint> choice_points;
    for (size_t r = 0; r < fired.size(); ++r) {
      if (fired[r].empty()) continue;
      if (!plan_.IsProbabilistic(r)) {
        plan_.AddHeads(r, fired[r].tuples(), &heads);
        continue;
      }
      PFQL_ASSIGN_OR_RETURN(std::vector<RepairKeyGroup> groups,
                            RepairKeyGroups(fired[r], plan_.Spec(r)));
      for (auto& g : groups) choice_points.push_back({r, std::move(g)});
    }
    return IterateChoices(choice_points, 0, db, heads, std::move(prob));
  }

  // Lazily iterates the product over choice points; `heads` holds the
  // deterministic heads plus one chosen alternative per point so far.
  Status IterateChoices(const std::vector<ChoicePoint>& points, size_t depth,
                        const Instance& db,
                        const InflationaryPlan::HeadTuples& heads,
                        BigRational prob) {
    if (depth == points.size()) {
      Instance child = db;
      const std::vector<Relation> deltas = plan_.Apply(heads, &child);
      return Visit(child, &deltas, std::move(prob));
    }
    const ChoicePoint& cp = points[depth];
    for (const auto& [binding, p] : cp.group.alternatives) {
      InflationaryPlan::HeadTuples chosen = heads;
      plan_.AddHeads(cp.rule, {binding}, &chosen);
      PFQL_RETURN_NOT_OK(
          IterateChoices(points, depth + 1, db, chosen, prob * p));
    }
    return Status::OK();
  }

  const InflationaryPlan& plan_;
  const ExactInflationaryOptions& options_;
  std::function<Status(const Instance&, const BigRational&)> on_fixpoint_;
  CancelPoller poller_;
  size_t nodes_ = 0;
};

}  // namespace

StatusOr<BigRational> ExactFixpointEventProbability(
    const Program& program, const Instance& edb, const QueryEvent& event,
    const ExactInflationaryOptions& options, size_t* nodes_visited) {
  PFQL_ASSIGN_OR_RETURN(std::shared_ptr<const InflationaryPlan> plan,
                        InflationaryPlan::Make(program, edb));
  BigRational total;
  ExactTraversal traversal(
      *plan, options,
      [&](const Instance& fixpoint, const BigRational& p) -> Status {
        if (event.Holds(fixpoint)) total += p;
        return Status::OK();
      });
  Status status = traversal.Run();
  if (nodes_visited != nullptr) *nodes_visited = traversal.nodes_visited();
  PFQL_RETURN_NOT_OK(status);
  return total;
}

StatusOr<Distribution<Instance>> ExactFixpointDistribution(
    const Program& program, const Instance& edb,
    const ExactInflationaryOptions& options) {
  PFQL_ASSIGN_OR_RETURN(std::shared_ptr<const InflationaryPlan> plan,
                        InflationaryPlan::Make(program, edb));
  Distribution<Instance> dist;
  ExactTraversal traversal(
      *plan, options,
      [&](const Instance& fixpoint, const BigRational& p) -> Status {
        dist.Add(fixpoint, p);
        return Status::OK();
      });
  PFQL_RETURN_NOT_OK(traversal.Run());
  dist.Normalize();
  return dist;
}

}  // namespace datalog
}  // namespace pfql
