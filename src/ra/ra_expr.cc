#include "ra/ra_expr.h"

#include <algorithm>

#include "util/string_util.h"

namespace pfql {

namespace {
std::shared_ptr<RaExpr> New() { return std::make_shared<RaExpr>(); }
}  // namespace

RaExpr::Ptr RaExpr::Base(std::string relation_name) {
  auto e = New();
  e->kind_ = Kind::kBase;
  e->name_ = std::move(relation_name);
  return e;
}

RaExpr::Ptr RaExpr::Const(Relation relation) {
  auto e = New();
  e->kind_ = Kind::kConst;
  e->const_relation_ = std::move(relation);
  return e;
}

RaExpr::Ptr RaExpr::Select(Ptr child, std::shared_ptr<Predicate> pred) {
  auto e = New();
  e->kind_ = Kind::kSelect;
  e->left_ = std::move(child);
  e->predicate_ = std::move(pred);
  return e;
}

RaExpr::Ptr RaExpr::Project(Ptr child, std::vector<std::string> columns) {
  auto e = New();
  e->kind_ = Kind::kProject;
  e->left_ = std::move(child);
  e->columns_ = std::move(columns);
  return e;
}

RaExpr::Ptr RaExpr::Rename(Ptr child,
                           std::map<std::string, std::string> renames) {
  auto e = New();
  e->kind_ = Kind::kRename;
  e->left_ = std::move(child);
  e->renames_ = std::move(renames);
  return e;
}

RaExpr::Ptr RaExpr::Extend(Ptr child, std::string column,
                           std::shared_ptr<ScalarExpr> expr) {
  auto e = New();
  e->kind_ = Kind::kExtend;
  e->left_ = std::move(child);
  e->extend_column_ = std::move(column);
  e->extend_expr_ = std::move(expr);
  return e;
}

#define PFQL_RA_BINARY_FACTORY(Name, KindValue)            \
  RaExpr::Ptr RaExpr::Name(Ptr left, Ptr right) {          \
    auto e = New();                                        \
    e->kind_ = Kind::KindValue;                            \
    e->left_ = std::move(left);                            \
    e->right_ = std::move(right);                          \
    return e;                                              \
  }

PFQL_RA_BINARY_FACTORY(Join, kJoin)
PFQL_RA_BINARY_FACTORY(Product, kProduct)
PFQL_RA_BINARY_FACTORY(Union, kUnion)
PFQL_RA_BINARY_FACTORY(Difference, kDifference)
PFQL_RA_BINARY_FACTORY(Intersect, kIntersect)

#undef PFQL_RA_BINARY_FACTORY

RaExpr::Ptr RaExpr::RepairKey(Ptr child, RepairKeySpec spec) {
  auto e = New();
  e->kind_ = Kind::kRepairKey;
  e->left_ = std::move(child);
  e->repair_spec_ = std::move(spec);
  return e;
}

bool RaExpr::IsProbabilistic() const {
  if (kind_ == Kind::kRepairKey) return true;
  if (left_ && left_->IsProbabilistic()) return true;
  if (right_ && right_->IsProbabilistic()) return true;
  return false;
}

namespace {
void CollectInputs(const RaExpr& e, std::vector<std::string>* out) {
  if (e.kind() == RaExpr::Kind::kBase) out->push_back(e.relation_name());
  if (e.left()) CollectInputs(*e.left(), out);
  if (e.right()) CollectInputs(*e.right(), out);
}
}  // namespace

std::vector<std::string> RaExpr::InputRelations() const {
  std::vector<std::string> out;
  CollectInputs(*this, &out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string RaExpr::ToString() const {
  switch (kind_) {
    case Kind::kBase:
      return name_;
    case Kind::kConst:
      return const_relation_.ToString();
    case Kind::kSelect:
      return "select[" + predicate_->ToString() + "](" + left_->ToString() +
             ")";
    case Kind::kProject:
      return "project[" + JoinStrings(columns_, ", ") + "](" +
             left_->ToString() + ")";
    case Kind::kRename: {
      std::string pairs;
      for (const auto& [from, to] : renames_) {
        if (!pairs.empty()) pairs += ", ";
        pairs += from + "->" + to;
      }
      return "rename[" + pairs + "](" + left_->ToString() + ")";
    }
    case Kind::kExtend:
      return "extend[" + extend_column_ + " := " + extend_expr_->ToString() +
             "](" + left_->ToString() + ")";
    case Kind::kJoin:
      return "(" + left_->ToString() + " join " + right_->ToString() + ")";
    case Kind::kProduct:
      return "(" + left_->ToString() + " x " + right_->ToString() + ")";
    case Kind::kUnion:
      return "(" + left_->ToString() + " union " + right_->ToString() + ")";
    case Kind::kDifference:
      return "(" + left_->ToString() + " - " + right_->ToString() + ")";
    case Kind::kIntersect:
      return "(" + left_->ToString() + " intersect " + right_->ToString() +
             ")";
    case Kind::kRepairKey: {
      std::string spec = JoinStrings(repair_spec_.key_columns, ", ");
      if (repair_spec_.weight_column) spec += " @ " + *repair_spec_.weight_column;
      return "repair-key[" + spec + "](" + left_->ToString() + ")";
    }
  }
  return "<corrupt>";
}

namespace {

// Applies the deterministic part of a unary node to one world.
StatusOr<Relation> ApplyUnary(const RaExpr& e, const Relation& in) {
  switch (e.kind()) {
    case RaExpr::Kind::kSelect:
      return Select(in, e.predicate());
    case RaExpr::Kind::kProject:
      return Project(in, e.columns());
    case RaExpr::Kind::kRename:
      return RenameColumns(in, e.renames());
    case RaExpr::Kind::kExtend:
      return Extend(in, e.extend_column(), e.extend_expr());
    default:
      return Status::Internal("ApplyUnary on non-unary node");
  }
}

// Applies a deterministic binary operator to a pair of worlds.
StatusOr<Relation> ApplyBinary(const RaExpr& e, const Relation& a,
                               const Relation& b) {
  switch (e.kind()) {
    case RaExpr::Kind::kJoin:
      return NaturalJoin(a, b);
    case RaExpr::Kind::kProduct:
      return Product(a, b);
    case RaExpr::Kind::kUnion:
      return Union(a, b);
    case RaExpr::Kind::kDifference:
      return Difference(a, b);
    case RaExpr::Kind::kIntersect:
      return Intersect(a, b);
    default:
      return Status::Internal("ApplyBinary on non-binary node");
  }
}

}  // namespace

StatusOr<Distribution<Relation>> EvalExact(const RaExpr::Ptr& expr,
                                           const Instance& instance,
                                           const ExactEvalOptions& options) {
  if (expr == nullptr) return Status::InvalidArgument("null RaExpr");
  const RaExpr& e = *expr;
  switch (e.kind()) {
    case RaExpr::Kind::kBase: {
      PFQL_ASSIGN_OR_RETURN(Relation rel, instance.Get(e.relation_name()));
      return Distribution<Relation>::Point(std::move(rel));
    }
    case RaExpr::Kind::kConst:
      return Distribution<Relation>::Point(e.const_relation());
    case RaExpr::Kind::kSelect:
    case RaExpr::Kind::kProject:
    case RaExpr::Kind::kRename:
    case RaExpr::Kind::kExtend: {
      PFQL_ASSIGN_OR_RETURN(Distribution<Relation> child,
                            EvalExact(e.left(), instance, options));
      Distribution<Relation> out;
      for (const auto& o : child.outcomes()) {
        PFQL_ASSIGN_OR_RETURN(Relation r, ApplyUnary(e, o.value));
        out.Add(std::move(r), o.probability);
      }
      out.Normalize();
      return out;
    }
    case RaExpr::Kind::kJoin:
    case RaExpr::Kind::kProduct:
    case RaExpr::Kind::kUnion:
    case RaExpr::Kind::kDifference:
    case RaExpr::Kind::kIntersect: {
      PFQL_ASSIGN_OR_RETURN(Distribution<Relation> left,
                            EvalExact(e.left(), instance, options));
      PFQL_ASSIGN_OR_RETURN(Distribution<Relation> right,
                            EvalExact(e.right(), instance, options));
      if (left.size() * right.size() > options.max_worlds) {
        return Status::ResourceExhausted(
            "exact evaluation exceeds max_worlds = " +
            std::to_string(options.max_worlds));
      }
      Distribution<Relation> out;
      for (const auto& ol : left.outcomes()) {
        for (const auto& orr : right.outcomes()) {
          PFQL_ASSIGN_OR_RETURN(Relation r, ApplyBinary(e, ol.value, orr.value));
          out.Add(std::move(r), ol.probability * orr.probability);
        }
      }
      out.Normalize();
      return out;
    }
    case RaExpr::Kind::kRepairKey: {
      PFQL_ASSIGN_OR_RETURN(Distribution<Relation> child,
                            EvalExact(e.left(), instance, options));
      Distribution<Relation> out;
      size_t produced = 0;
      for (const auto& o : child.outcomes()) {
        PFQL_ASSIGN_OR_RETURN(Distribution<Relation> repairs,
                              RepairKeyEnumerate(o.value, e.repair_spec()));
        produced += repairs.size();
        if (produced > options.max_worlds) {
          return Status::ResourceExhausted(
              "repair-key enumeration exceeds max_worlds = " +
              std::to_string(options.max_worlds));
        }
        for (const auto& ro : repairs.outcomes()) {
          out.Add(ro.value, ro.probability * o.probability);
        }
      }
      out.Normalize();
      return out;
    }
  }
  return Status::Internal("corrupt RaExpr");
}

namespace {

// Evaluates `e` into `*out`, which points either into the input (Base), at
// the node's literal (Const), or at `*scratch` holding a computed result.
Status EvalSampleInto(const RaExpr& e, const RelationLookup& lookup, Rng* rng,
                      Relation* scratch, const Relation** out) {
  switch (e.kind()) {
    case RaExpr::Kind::kBase: {
      *out = lookup(e.relation_name());
      if (*out == nullptr) {
        return Status::NotFound("relation '" + e.relation_name() +
                                "' not in instance");
      }
      return Status::OK();
    }
    case RaExpr::Kind::kConst:
      *out = &e.const_relation();
      return Status::OK();
    case RaExpr::Kind::kSelect:
    case RaExpr::Kind::kProject:
    case RaExpr::Kind::kRename:
    case RaExpr::Kind::kExtend: {
      Relation child_scratch;
      const Relation* child = nullptr;
      PFQL_RETURN_NOT_OK(
          EvalSampleInto(*e.left(), lookup, rng, &child_scratch, &child));
      PFQL_ASSIGN_OR_RETURN(*scratch, ApplyUnary(e, *child));
      break;
    }
    case RaExpr::Kind::kJoin:
    case RaExpr::Kind::kProduct:
    case RaExpr::Kind::kUnion:
    case RaExpr::Kind::kDifference:
    case RaExpr::Kind::kIntersect: {
      Relation a_scratch, b_scratch;
      const Relation* a = nullptr;
      const Relation* b = nullptr;
      PFQL_RETURN_NOT_OK(
          EvalSampleInto(*e.left(), lookup, rng, &a_scratch, &a));
      PFQL_RETURN_NOT_OK(
          EvalSampleInto(*e.right(), lookup, rng, &b_scratch, &b));
      PFQL_ASSIGN_OR_RETURN(*scratch, ApplyBinary(e, *a, *b));
      break;
    }
    case RaExpr::Kind::kRepairKey: {
      Relation child_scratch;
      const Relation* child = nullptr;
      PFQL_RETURN_NOT_OK(
          EvalSampleInto(*e.left(), lookup, rng, &child_scratch, &child));
      PFQL_ASSIGN_OR_RETURN(*scratch,
                            RepairKeySample(*child, e.repair_spec(), rng));
      break;
    }
    default:
      return Status::Internal("corrupt RaExpr");
  }
  *out = scratch;
  return Status::OK();
}

}  // namespace

StatusOr<Relation> EvalSample(const RaExpr::Ptr& expr,
                              const RelationLookup& lookup, Rng* rng) {
  if (expr == nullptr) return Status::InvalidArgument("null RaExpr");
  Relation scratch;
  const Relation* out = nullptr;
  PFQL_RETURN_NOT_OK(EvalSampleInto(*expr, lookup, rng, &scratch, &out));
  if (out == &scratch) return scratch;
  return *out;
}

StatusOr<Relation> EvalSample(const RaExpr::Ptr& expr,
                              const Instance& instance, Rng* rng) {
  return EvalSample(
      expr,
      [&instance](const std::string& name) { return instance.Find(name); },
      rng);
}

StatusOr<Schema> InferSchema(const RaExpr::Ptr& expr,
                             const std::map<std::string, Schema>& schemas) {
  if (expr == nullptr) return Status::InvalidArgument("null RaExpr");
  const RaExpr& e = *expr;
  switch (e.kind()) {
    case RaExpr::Kind::kBase: {
      auto it = schemas.find(e.relation_name());
      if (it == schemas.end()) {
        return Status::NotFound("unknown relation '" + e.relation_name() +
                                "'");
      }
      return it->second;
    }
    case RaExpr::Kind::kConst:
      return e.const_relation().schema();
    case RaExpr::Kind::kSelect: {
      PFQL_ASSIGN_OR_RETURN(Schema s, InferSchema(e.left(), schemas));
      std::vector<std::string> used;
      e.predicate()->CollectColumns(&used);
      for (const auto& c : used) {
        if (!s.Contains(c)) {
          return Status::NotFound("selection references unknown column '" +
                                  c + "' in " + s.ToString());
        }
      }
      return s;
    }
    case RaExpr::Kind::kProject: {
      PFQL_ASSIGN_OR_RETURN(Schema s, InferSchema(e.left(), schemas));
      PFQL_RETURN_NOT_OK(s.IndicesOf(e.columns()).status());
      Schema out(e.columns());
      PFQL_RETURN_NOT_OK(out.Validate());
      return out;
    }
    case RaExpr::Kind::kRename: {
      PFQL_ASSIGN_OR_RETURN(Schema s, InferSchema(e.left(), schemas));
      std::vector<std::string> cols = s.columns();
      for (const auto& [from, to] : e.renames()) {
        auto idx = s.IndexOf(from);
        if (!idx) {
          return Status::NotFound("rename source '" + from + "' not in " +
                                  s.ToString());
        }
        cols[*idx] = to;
      }
      Schema out(std::move(cols));
      PFQL_RETURN_NOT_OK(out.Validate());
      return out;
    }
    case RaExpr::Kind::kExtend: {
      PFQL_ASSIGN_OR_RETURN(Schema s, InferSchema(e.left(), schemas));
      if (s.Contains(e.extend_column())) {
        return Status::AlreadyExists("extend column '" + e.extend_column() +
                                     "' already in " + s.ToString());
      }
      std::vector<std::string> used;
      e.extend_expr()->CollectColumns(&used);
      for (const auto& c : used) {
        if (!s.Contains(c)) {
          return Status::NotFound("extend references unknown column '" + c +
                                  "'");
        }
      }
      std::vector<std::string> cols = s.columns();
      cols.push_back(e.extend_column());
      return Schema(std::move(cols));
    }
    case RaExpr::Kind::kJoin: {
      PFQL_ASSIGN_OR_RETURN(Schema a, InferSchema(e.left(), schemas));
      PFQL_ASSIGN_OR_RETURN(Schema b, InferSchema(e.right(), schemas));
      return a.JoinWith(b);
    }
    case RaExpr::Kind::kProduct: {
      PFQL_ASSIGN_OR_RETURN(Schema a, InferSchema(e.left(), schemas));
      PFQL_ASSIGN_OR_RETURN(Schema b, InferSchema(e.right(), schemas));
      return a.ConcatDisjoint(b);
    }
    case RaExpr::Kind::kUnion:
    case RaExpr::Kind::kDifference:
    case RaExpr::Kind::kIntersect: {
      PFQL_ASSIGN_OR_RETURN(Schema a, InferSchema(e.left(), schemas));
      PFQL_ASSIGN_OR_RETURN(Schema b, InferSchema(e.right(), schemas));
      if (a.size() != b.size()) {
        return Status::TypeError("set operation on schemas of arity " +
                                 std::to_string(a.size()) + " and " +
                                 std::to_string(b.size()));
      }
      return a;
    }
    case RaExpr::Kind::kRepairKey: {
      PFQL_ASSIGN_OR_RETURN(Schema s, InferSchema(e.left(), schemas));
      PFQL_RETURN_NOT_OK(s.IndicesOf(e.repair_spec().key_columns).status());
      if (e.repair_spec().weight_column &&
          !s.Contains(*e.repair_spec().weight_column)) {
        return Status::NotFound("repair-key weight column '" +
                                *e.repair_spec().weight_column + "' not in " +
                                s.ToString());
      }
      return s;
    }
  }
  return Status::Internal("corrupt RaExpr");
}

}  // namespace pfql
