#include "query/sql_parser.h"

#include <cmath>
#include <cstdlib>
#include <string_view>
#include <utility>

namespace pairwisehist {

namespace {

// Character classes of the C locale, without the locale lookup.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
char ToUpper(char c) { return c >= 'a' && c <= 'z' ? c - ('a' - 'A') : c; }

/// ASCII case-insensitive `text == upper_kw` (`upper_kw` upper case).
bool KeywordEquals(std::string_view text, std::string_view upper_kw) {
  if (text.size() != upper_kw.size()) return false;
  for (size_t i = 0; i < text.size(); ++i) {
    if (ToUpper(text[i]) != upper_kw[i]) return false;
  }
  return true;
}

/// Length of the decimal literal at s[i..]: [+-]? (d+ ['.' d*] | '.' d+)
/// [(e|E) [+-]? d+]. 0 when there is none.
size_t DecimalLength(std::string_view s, size_t i) {
  const size_t start = i;
  if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
  size_t digits = 0;
  while (i < s.size() && IsDigit(s[i])) ++i, ++digits;
  if (i < s.size() && s[i] == '.') {
    size_t j = i + 1;
    while (j < s.size() && IsDigit(s[j])) ++j, ++digits;
    if (digits == 0) return 0;  // a lone '.' or sign
    i = j;
  }
  if (digits == 0) return 0;
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    size_t j = i + 1;
    if (j < s.size() && (s[j] == '+' || s[j] == '-')) ++j;
    if (j < s.size() && IsDigit(s[j])) {
      while (j < s.size() && IsDigit(s[j])) ++j;
      i = j;
    }
  }
  return i - start;
}

enum class TokenType {
  kIdent,
  kNumber,
  kString,
  kSymbol,  // operators and punctuation
  kEnd,
};

/// A token viewed in place in the statement. A string literal's `text` is
/// its body between the quotes, with doubled quotes still doubled
/// (`escaped` says whether there are any).
struct Token {
  TokenType type = TokenType::kEnd;
  std::string_view text;
  double number = 0;
  size_t pos = 0;  // byte offset for error messages
  char quote = 0;
  bool escaped = false;
};

/// Lexes one token ahead of a recursive-descent parse. Each Parse* method
/// returns false after recording the error in `error_`.
class Parser {
 public:
  explicit Parser(const std::string& sql) : in_(sql) {}

  StatusOr<Query> Parse() {
    Query q;
    if (!ParseQuery(&q)) return std::move(error_);
    return q;
  }

 private:
  bool ParseQuery(Query* q) {
    if (!Advance() || !ExpectKeyword("SELECT")) return false;
    if (!ParseAggFunc(&q->func) || !ExpectSymbol('(')) return false;
    if (IsSymbol('*')) {
      q->count_star = true;
      if (q->func != AggFunc::kCount) {
        return Fail(Status::InvalidArgument(
            "SQL: '*' argument is only valid for COUNT"));
      }
      if (!Advance()) return false;
    } else if (cur_.type == TokenType::kIdent) {
      q->agg_column = cur_.text;
      if (!Advance()) return false;
    } else {
      return ErrorHere("expected column name or '*'");
    }
    if (!ExpectSymbol(')') || !ExpectKeyword("FROM")) return false;
    if (cur_.type != TokenType::kIdent) {
      return ErrorHere("expected table name");
    }
    q->table = cur_.text;
    if (!Advance()) return false;

    if (IsKeyword("WHERE")) {
      if (!Advance() || !ParseOr(&q->where.emplace())) return false;
    }
    if (IsKeyword("GROUP")) {
      if (!Advance() || !ExpectKeyword("BY")) return false;
      if (cur_.type != TokenType::kIdent) {
        return ErrorHere("expected GROUP BY column");
      }
      q->group_by = cur_.text;
      if (!Advance()) return false;
    }
    if (IsSymbol(';') && !Advance()) return false;
    if (cur_.type != TokenType::kEnd) {
      return ErrorHere("unexpected trailing input");
    }
    return true;
  }

  /// Lexes the next token into `cur_`.
  bool Advance() {
    while (pos_ < in_.size() && IsSpace(in_[pos_])) ++pos_;
    cur_ = Token();
    cur_.pos = pos_;
    if (pos_ >= in_.size()) return true;  // kEnd
    const char c = in_[pos_];
    if (IsAlpha(c) || c == '_') {
      size_t end = pos_ + 1;
      while (end < in_.size() && (IsAlpha(in_[end]) || IsDigit(in_[end]) ||
                                  in_[end] == '_' || in_[end] == '.')) {
        ++end;
      }
      return Emit(TokenType::kIdent, end);
    }
    if (IsDigit(c) || c == '-' || c == '+' || c == '.') {
      const size_t decimal = DecimalLength(in_, pos_);
      // strtod reads hex, inf and nan too: only a literal it reads exactly
      // as far as the decimal rule reaches is accepted.
      const char* begin = in_.data() + pos_;  // NUL-terminated
      char* end = nullptr;
      const double v = std::strtod(begin, &end);
      const size_t read = static_cast<size_t>(end - begin);
      if (read != decimal) return ErrorHere("malformed numeric literal");
      if (decimal > 0) {
        if (!std::isfinite(v)) {
          return ErrorHere("numeric literal out of range");
        }
        cur_.number = v;
        return Emit(TokenType::kNumber, pos_ + decimal);
      }
    }
    if (c == '\'' || c == '"') return LexString(c);
    const char next = pos_ + 1 < in_.size() ? in_[pos_ + 1] : '\0';
    const bool two_char = (next == '=' && (c == '<' || c == '>' ||
                                           c == '!' || c == '=')) ||
                          (c == '<' && next == '>');
    return Emit(TokenType::kSymbol, pos_ + (two_char ? 2 : 1));
  }

  bool Emit(TokenType type, size_t end) {
    cur_.type = type;
    cur_.text = in_.substr(pos_, end - pos_);
    pos_ = end;
    return true;
  }

  bool LexString(char quote) {
    const size_t start = pos_ + 1;
    size_t i = start;
    bool escaped = false;
    while (i < in_.size()) {
      if (in_[i] == quote) {
        if (i + 1 < in_.size() && in_[i + 1] == quote) {
          escaped = true;
          i += 2;
          continue;
        }
        break;
      }
      ++i;
    }
    if (i >= in_.size()) {
      return Fail(Status::InvalidArgument(
          "SQL: unterminated string at offset " + std::to_string(pos_)));
    }
    cur_.type = TokenType::kString;
    cur_.text = in_.substr(start, i - start);
    cur_.quote = quote;
    cur_.escaped = escaped;
    pos_ = i + 1;  // past the closing quote
    return true;
  }

  /// The current string literal's value, doubled quotes collapsed.
  std::string StringValue() const {
    if (!cur_.escaped) return std::string(cur_.text);
    std::string s;
    s.reserve(cur_.text.size());
    for (size_t i = 0; i < cur_.text.size(); ++i) {
      s += cur_.text[i];
      if (cur_.text[i] == cur_.quote) ++i;  // skip the doubled quote
    }
    return s;
  }

  bool IsKeyword(std::string_view kw) const {
    return cur_.type == TokenType::kIdent && KeywordEquals(cur_.text, kw);
  }

  bool IsSymbol(char sym) const {
    return cur_.type == TokenType::kSymbol && cur_.text.size() == 1 &&
           cur_.text[0] == sym;
  }

  bool ExpectKeyword(std::string_view kw) {
    if (!IsKeyword(kw)) return ErrorHere("expected " + std::string(kw));
    return Advance();
  }

  bool ExpectSymbol(char sym) {
    if (!IsSymbol(sym)) {
      return ErrorHere(std::string("expected '") + sym + "'");
    }
    return Advance();
  }

  bool Fail(Status status) {
    error_ = std::move(status);
    return false;
  }

  bool ErrorAt(size_t pos, const std::string& what) {
    return Fail(Status::InvalidArgument("SQL: " + what + " at offset " +
                                        std::to_string(pos)));
  }

  bool ErrorHere(const std::string& what) { return ErrorAt(cur_.pos, what); }

  bool ParseAggFunc(AggFunc* func) {
    if (cur_.type != TokenType::kIdent) {
      return ErrorHere("expected aggregation function");
    }
    const std::string_view name = cur_.text;
    if (!Advance()) return false;
    static constexpr std::pair<std::string_view, AggFunc> kFuncs[] = {
        {"COUNT", AggFunc::kCount},   {"SUM", AggFunc::kSum},
        {"AVG", AggFunc::kAvg},       {"MEAN", AggFunc::kAvg},
        {"MIN", AggFunc::kMin},       {"MAX", AggFunc::kMax},
        {"MEDIAN", AggFunc::kMedian}, {"VAR", AggFunc::kVar},
        {"VARIANCE", AggFunc::kVar},
    };
    for (const auto& [kw, f] : kFuncs) {
      if (KeywordEquals(name, kw)) {
        *func = f;
        return true;
      }
    }
    std::string upper(name);
    for (char& ch : upper) ch = ToUpper(ch);
    return Fail(Status::InvalidArgument("SQL: unknown aggregation '" + upper +
                                        "'"));
  }

  /// Parses `first (KW first)*` into `*node`: the single operand itself, or
  /// a `type` node over all of them.
  template <bool (Parser::*ParseOperand)(PredicateNode*)>
  bool ParseChain(PredicateNode* node, std::string_view kw,
                  PredicateNode::Type type) {
    if (!(this->*ParseOperand)(node)) return false;
    if (!IsKeyword(kw)) return true;
    PredicateNode first = std::move(*node);
    *node = PredicateNode();
    node->type = type;
    node->children.push_back(std::move(first));
    while (IsKeyword(kw)) {
      if (!Advance()) return false;
      if (!(this->*ParseOperand)(&node->children.emplace_back())) {
        return false;
      }
    }
    return true;
  }

  bool ParseOr(PredicateNode* node) {
    return ParseChain<&Parser::ParseAnd>(node, "OR", PredicateNode::Type::kOr);
  }

  bool ParseAnd(PredicateNode* node) {
    return ParseChain<&Parser::ParsePrimary>(node, "AND",
                                             PredicateNode::Type::kAnd);
  }

  bool ParsePrimary(PredicateNode* node) {
    if (IsSymbol('(')) {
      // Bounded so a deeply parenthesized statement cannot exhaust the
      // stack of a serving thread.
      if (depth_ == kMaxNesting) {
        return ErrorHere("predicate nested too deeply");
      }
      ++depth_;
      const bool ok = Advance() && ParseOr(node) && ExpectSymbol(')');
      --depth_;
      return ok;
    }
    if (cur_.type != TokenType::kIdent) {
      return ErrorHere("expected predicate column or '('");
    }
    Condition& cond = node->condition;
    cond.column = cur_.text;
    if (!Advance()) return false;

    if (cur_.type != TokenType::kSymbol) {
      return ErrorHere("expected comparison operator");
    }
    const std::string_view op = cur_.text;
    const size_t op_pos = cur_.pos;
    if (!Advance()) return false;
    if (op == "<") cond.op = CmpOp::kLt;
    else if (op == "<=") cond.op = CmpOp::kLe;
    else if (op == ">") cond.op = CmpOp::kGt;
    else if (op == ">=") cond.op = CmpOp::kGe;
    else if (op == "=" || op == "==") cond.op = CmpOp::kEq;
    else if (op == "!=" || op == "<>") cond.op = CmpOp::kNe;
    else return ErrorAt(op_pos, "unknown operator '" + std::string(op) + "'");

    if (cur_.type == TokenType::kNumber) {
      cond.value = cur_.number;
    } else if (cur_.type == TokenType::kString) {
      cond.is_string = true;
      cond.text_value = StringValue();
    } else {
      return ErrorHere("expected literal");
    }
    return Advance();
  }

  static constexpr size_t kMaxNesting = 256;

  std::string_view in_;  // a whole std::string, so NUL-terminated
  size_t pos_ = 0;
  Token cur_;
  size_t depth_ = 0;  // open parentheses
  Status error_;
};

}  // namespace

StatusOr<Query> ParseSql(const std::string& sql) {
  return Parser(sql).Parse();
}

}  // namespace pairwisehist
