#include "relational/algebra.h"

#include <unordered_map>

namespace pfql {

StatusOr<Relation> Select(const Relation& rel,
                          const std::shared_ptr<Predicate>& pred) {
  RelationBuilder out(rel.schema());
  for (const auto& t : rel.tuples()) {
    PFQL_ASSIGN_OR_RETURN(bool keep, pred->Eval(rel.schema(), t));
    if (keep) out.Add(t);
  }
  return out.Seal();
}

StatusOr<Relation> Project(const Relation& rel,
                           const std::vector<std::string>& cols) {
  PFQL_ASSIGN_OR_RETURN(std::vector<size_t> idx,
                        rel.schema().IndicesOf(cols));
  RelationBuilder out((Schema(cols)));
  out.Reserve(rel.size());
  for (const auto& t : rel.tuples()) out.Add(t.Project(idx));
  return out.Seal();
}

StatusOr<Relation> RenameColumns(
    const Relation& rel, const std::map<std::string, std::string>& m) {
  std::vector<std::string> cols = rel.schema().columns();
  for (const auto& [from, to] : m) {
    auto idx = rel.schema().IndexOf(from);
    if (!idx) {
      return Status::NotFound("rename source column '" + from +
                              "' not in schema " + rel.schema().ToString());
    }
    cols[*idx] = to;
  }
  // Renaming never reorders tuples, so rebind the schema onto the existing
  // canonical tuple vector instead of re-sorting through Relation::Make.
  return rel.WithSchema(Schema(std::move(cols)));
}

StatusOr<Relation> NaturalJoin(const Relation& a, const Relation& b) {
  const std::vector<std::string> common = a.schema().CommonColumns(b.schema());
  if (common.empty()) return Product(a, b);

  PFQL_ASSIGN_OR_RETURN(std::vector<size_t> a_key,
                        a.schema().IndicesOf(common));
  PFQL_ASSIGN_OR_RETURN(std::vector<size_t> b_key,
                        b.schema().IndicesOf(common));
  // Indices of b's columns not in common, in schema order.
  std::vector<size_t> b_rest;
  for (size_t i = 0; i < b.schema().size(); ++i) {
    if (!a.schema().Contains(b.schema().column(i))) b_rest.push_back(i);
  }
  auto joined = [&](const Tuple& ta, const Tuple& tb) {
    Tuple out = ta;
    for (size_t i : b_rest) out.Append(tb[i]);
    return out;
  };

  // Hash the smaller side on the key tuple itself, so each build tuple is
  // projected exactly once, and probe with the larger. Seal() puts the
  // output in canonical order, so the choice of side never shows.
  const bool build_a = a.size() < b.size();
  const Relation& build = build_a ? a : b;
  const Relation& probe = build_a ? b : a;
  const std::vector<size_t>& build_key = build_a ? a_key : b_key;
  const std::vector<size_t>& probe_key = build_a ? b_key : a_key;
  std::unordered_map<Tuple, std::vector<const Tuple*>, TupleHash> index;
  index.reserve(build.size());
  for (const auto& t : build.tuples()) {
    index[t.Project(build_key)].push_back(&t);
  }

  RelationBuilder out(a.schema().JoinWith(b.schema()));
  for (const auto& tp : probe.tuples()) {
    auto it = index.find(tp.Project(probe_key));
    if (it == index.end()) continue;
    for (const Tuple* tm : it->second) {
      out.Add(build_a ? joined(*tm, tp) : joined(tp, *tm));
    }
  }
  return out.Seal();
}

StatusOr<Relation> Product(const Relation& a, const Relation& b) {
  PFQL_ASSIGN_OR_RETURN(Schema out_schema,
                        a.schema().ConcatDisjoint(b.schema()));
  RelationBuilder out(std::move(out_schema));
  out.Reserve(a.size() * b.size());
  for (const auto& ta : a.tuples()) {
    for (const auto& tb : b.tuples()) {
      Tuple joined = ta;
      for (const auto& v : tb.values()) joined.Append(v);
      out.Add(std::move(joined));
    }
  }
  return out.Seal();
}

StatusOr<Relation> Union(const Relation& a, const Relation& b) {
  return a.UnionWith(b);
}

StatusOr<Relation> Difference(const Relation& a, const Relation& b) {
  return a.DifferenceWith(b);
}

StatusOr<Relation> Intersect(const Relation& a, const Relation& b) {
  return a.IntersectWith(b);
}

StatusOr<Relation> Extend(const Relation& rel, const std::string& new_column,
                          const std::shared_ptr<ScalarExpr>& expr) {
  if (rel.schema().Contains(new_column)) {
    return Status::AlreadyExists("extend column '" + new_column +
                                 "' already in schema");
  }
  std::vector<std::string> cols = rel.schema().columns();
  cols.push_back(new_column);
  RelationBuilder out((Schema(std::move(cols))));
  out.Reserve(rel.size());
  for (const auto& t : rel.tuples()) {
    PFQL_ASSIGN_OR_RETURN(Value v, expr->Eval(rel.schema(), t));
    Tuple extended = t;
    extended.Append(std::move(v));
    out.Add(std::move(extended));
  }
  return out.Seal();
}

Relation SingletonColumn(const std::string& column,
                         const std::vector<Value>& values) {
  Relation out(Schema({column}));
  for (const auto& v : values) out.Insert(Tuple{v});
  return out;
}

}  // namespace pfql
