#include "serve/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace pairwisehist {

namespace {

/// Recursive-descent parser over [p, end). Depth-capped so a hostile body
/// cannot overflow the stack.
class Parser {
 public:
  Parser(const char* p, const char* end) : p_(p), end_(end) {}

  StatusOr<JsonValue> Parse() {
    PH_ASSIGN_OR_RETURN(JsonValue v, ParseValue(0));
    SkipWs();
    if (p_ != end_) return Err("trailing characters after JSON value");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Err(const std::string& msg) const {
    return Status::InvalidArgument("JSON: " + msg + " at offset " +
                                   std::to_string(off_));
  }

  void SkipWs() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                          *p_ == '\r')) {
      Advance();
    }
  }
  void Advance() {
    ++p_;
    ++off_;
  }
  bool Consume(char c) {
    if (p_ != end_ && *p_ == c) {
      Advance();
      return true;
    }
    return false;
  }
  bool ConsumeWord(const char* w) {
    const char* q = p_;
    size_t n = 0;
    while (w[n] != '\0') {
      if (q == end_ || *q != w[n]) return false;
      ++q;
      ++n;
    }
    p_ = q;
    off_ += n;
    return true;
  }

  StatusOr<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) return Err("nesting too deep");
    SkipWs();
    if (p_ == end_) return Err("unexpected end of input");
    JsonValue v;
    switch (*p_) {
      case '{': {
        Advance();
        v.type = JsonValue::Type::kObject;
        SkipWs();
        if (Consume('}')) return v;
        while (true) {
          SkipWs();
          PH_ASSIGN_OR_RETURN(std::string key, ParseString());
          SkipWs();
          if (!Consume(':')) return Err("expected ':'");
          PH_ASSIGN_OR_RETURN(JsonValue member, ParseValue(depth + 1));
          v.fields.emplace_back(std::move(key), std::move(member));
          SkipWs();
          if (Consume(',')) continue;
          if (Consume('}')) return v;
          return Err("expected ',' or '}'");
        }
      }
      case '[': {
        Advance();
        v.type = JsonValue::Type::kArray;
        SkipWs();
        if (Consume(']')) return v;
        while (true) {
          PH_ASSIGN_OR_RETURN(JsonValue item, ParseValue(depth + 1));
          v.items.push_back(std::move(item));
          SkipWs();
          if (Consume(',')) continue;
          if (Consume(']')) return v;
          return Err("expected ',' or ']'");
        }
      }
      case '"': {
        v.type = JsonValue::Type::kString;
        PH_ASSIGN_OR_RETURN(v.str, ParseString());
        return v;
      }
      case 't':
        if (ConsumeWord("true")) {
          v.type = JsonValue::Type::kBool;
          v.boolean = true;
          return v;
        }
        return Err("bad literal");
      case 'f':
        if (ConsumeWord("false")) {
          v.type = JsonValue::Type::kBool;
          v.boolean = false;
          return v;
        }
        return Err("bad literal");
      case 'n':
        if (ConsumeWord("null")) return v;
        return Err("bad literal");
      default:
        return ParseNumber();
    }
  }

  StatusOr<std::string> ParseString() {
    if (!Consume('"')) return Err("expected string");
    std::string out;
    while (true) {
      if (p_ == end_) return Err("unterminated string");
      const char c = *p_;
      Advance();
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (p_ == end_) return Err("unterminated escape");
      const char e = *p_;
      Advance();
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          // \uXXXX: decode the code point and emit UTF-8. Surrogate pairs
          // are accepted; lone surrogates become U+FFFD.
          PH_ASSIGN_OR_RETURN(unsigned cp, ParseHex4());
          if (cp >= 0xD800 && cp <= 0xDBFF && p_ + 1 < end_ &&
              p_[0] == '\\' && p_[1] == 'u') {
            Advance();
            Advance();
            PH_ASSIGN_OR_RETURN(unsigned lo, ParseHex4());
            if (lo >= 0xDC00 && lo <= 0xDFFF) {
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else {
              cp = 0xFFFD;
            }
          } else if (cp >= 0xD800 && cp <= 0xDFFF) {
            cp = 0xFFFD;
          }
          AppendUtf8(&out, cp);
          break;
        }
        default:
          return Err("bad escape");
      }
    }
  }

  StatusOr<unsigned> ParseHex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      if (p_ == end_) return Err("unterminated \\u escape");
      const char c = *p_;
      Advance();
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return Err("bad hex digit");
      }
    }
    return v;
  }

  static void AppendUtf8(std::string* out, unsigned cp) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  StatusOr<JsonValue> ParseNumber() {
    const char* start = p_;
    if (p_ != end_ && (*p_ == '-' || *p_ == '+')) Advance();
    bool any = false;
    while (p_ != end_ &&
           ((*p_ >= '0' && *p_ <= '9') || *p_ == '.' || *p_ == 'e' ||
            *p_ == 'E' || *p_ == '-' || *p_ == '+')) {
      any = true;
      Advance();
    }
    if (!any) return Err("unexpected character");
    std::string text(start, static_cast<size_t>(p_ - start));
    char* parse_end = nullptr;
    const double d = std::strtod(text.c_str(), &parse_end);
    if (parse_end != text.c_str() + text.size()) return Err("bad number");
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.number = d;
    return v;
  }

  const char* p_;
  const char* end_;
  size_t off_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& f : fields) {
    if (f.first == key) return &f.second;
  }
  return nullptr;
}

StatusOr<JsonValue> ParseJson(const std::string& text) {
  Parser p(text.data(), text.data() + text.size());
  return p.Parse();
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendJsonNumber(std::string* out, double v) {
  if (!std::isfinite(v)) {
    *out += "null";
    return;
  }
  // Same text as printf's "%.17g", without the format-string parse.
  char buf[32];
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  out->append(buf, r.ptr);
}

void AppendQueryResult(std::string* out, const QueryResult& result) {
  *out += "{\"groups\":[";
  for (size_t i = 0; i < result.groups.size(); ++i) {
    if (i != 0) out->push_back(',');
    const QueryResult::Group& g = result.groups[i];
    *out += "{\"label\":";
    AppendJsonString(out, g.label);
    *out += ",\"estimate\":";
    AppendJsonNumber(out, g.agg.estimate);
    *out += ",\"lower\":";
    AppendJsonNumber(out, g.agg.lower);
    *out += ",\"upper\":";
    AppendJsonNumber(out, g.agg.upper);
    *out += ",\"empty\":";
    *out += g.agg.empty_selection ? "true" : "false";
    *out += "}";
  }
  *out += "]}";
}

}  // namespace pairwisehist
