#include "query/ast.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace pairwisehist {

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kAvg:
      return "AVG";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
    case AggFunc::kMedian:
      return "MEDIAN";
    case AggFunc::kVar:
      return "VAR";
  }
  return "?";
}

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "!=";
  }
  return "?";
}

namespace {

void CollectColumns(const PredicateNode& node, std::vector<std::string>* out) {
  if (node.type == PredicateNode::Type::kCondition) {
    if (std::find(out->begin(), out->end(), node.condition.column) ==
        out->end()) {
      out->push_back(node.condition.column);
    }
    return;
  }
  for (const auto& child : node.children) CollectColumns(child, out);
}

bool IsSmallInteger(double v) {
  // Range first: converting an out-of-range double to an integer is
  // undefined behaviour.
  return std::abs(v) < 1e15 && v == static_cast<long long>(v);
}

// Ten significant digits, or the integer itself. The text reads back as a
// number that prints the same way, so ToSql is a fixed point of parsing.
std::string FormatNumber(double v) {
  char buf[64];
  if (!IsSmallInteger(v)) {
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    const double back = std::strtod(buf, nullptr);
    if (std::isfinite(v) && !std::isfinite(back)) {
      // Ten digits rounded past DBL_MAX: print every digit instead.
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      return buf;
    }
    if (!IsSmallInteger(back)) return buf;
    v = back;  // ten digits rounded to an integer: print it as one
  }
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  return buf;
}

void NodeToSql(const PredicateNode& node, bool parenthesize,
               std::string* out) {
  if (node.type == PredicateNode::Type::kCondition) {
    const Condition& c = node.condition;
    *out += c.column;
    *out += ' ';
    *out += CmpOpName(c.op);
    *out += ' ';
    if (c.is_string) {
      *out += '\'';
      for (char ch : c.text_value) {
        if (ch == '\'') *out += '\'';  // doubled, as the parser reads it
        *out += ch;
      }
      *out += '\'';
    } else {
      *out += FormatNumber(c.value);
    }
    return;
  }
  const char* joiner =
      node.type == PredicateNode::Type::kAnd ? " AND " : " OR ";
  if (parenthesize) *out += '(';
  for (size_t i = 0; i < node.children.size(); ++i) {
    if (i) *out += joiner;
    const PredicateNode& child = node.children[i];
    bool child_parens = child.type != PredicateNode::Type::kCondition;
    NodeToSql(child, child_parens, out);
  }
  if (parenthesize) *out += ')';
}

}  // namespace

std::vector<std::string> Query::PredicateColumns() const {
  std::vector<std::string> cols;
  if (where.has_value()) CollectColumns(*where, &cols);
  return cols;
}

bool Query::SingleColumn() const {
  std::vector<std::string> cols = PredicateColumns();
  if (count_star) return cols.size() <= 1;
  for (const auto& c : cols) {
    if (c != agg_column) return false;
  }
  return true;
}

std::string Query::ToSql() const {
  std::string sql = "SELECT ";
  sql += AggFuncName(func);
  sql += '(';
  sql += count_star ? "*" : agg_column;
  sql += ") FROM ";
  sql += table.empty() ? "t" : table;
  if (where.has_value()) {
    sql += " WHERE ";
    NodeToSql(*where, /*parenthesize=*/false, &sql);
  }
  if (!group_by.empty()) {
    sql += " GROUP BY ";
    sql += group_by;
  }
  sql += ';';
  return sql;
}

}  // namespace pairwisehist
