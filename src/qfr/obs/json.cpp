#include "qfr/obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "qfr/common/error.hpp"

namespace qfr::obs {

void json_escape(std::string_view s, std::string& out) {
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
}

namespace {

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";  // NaN/Inf are not JSON; null keeps the document valid
    return;
  }
  // Integers (the common case: counts, microsecond timestamps) print
  // without an exponent so trace viewers treat them as exact.
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
      std::fabs(v) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(static_cast<std::int64_t>(v)));
    out += buf;
    return;
  }
  // Shortest text that parses back to the same double, so a document
  // read back (a restored spectrum series) is bitwise what was written.
  char buf[32];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, r.ptr);
}

}  // namespace

void Json::push_back(Json v) {
  QFR_REQUIRE(is_array(), "push_back on non-array Json value");
  elements_.push_back(std::move(v));
}

Json& Json::operator[](std::string_view key) {
  QFR_REQUIRE(is_object(), "operator[] on non-object Json value");
  for (auto& [k, v] : members_)
    if (k == key) return v;
  members_.emplace_back(std::string(key), Json());
  return members_.back().second;
}

const Json* Json::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const auto newline_indent = [&](int d) {
    if (!pretty) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent) * d, ' ');
  };
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: append_number(out, num_); break;
    case Type::kString:
      out += '"';
      json_escape(str_, out);
      out += '"';
      break;
    case Type::kArray:
      out += '[';
      for (std::size_t i = 0; i < elements_.size(); ++i) {
        if (i) out += ',';
        newline_indent(depth + 1);
        elements_[i].dump_to(out, indent, depth + 1);
      }
      if (!elements_.empty()) newline_indent(depth);
      out += ']';
      break;
    case Type::kObject:
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i) out += ',';
        newline_indent(depth + 1);
        out += '"';
        json_escape(members_[i].first, out);
        out += pretty ? "\": " : "\":";
        members_[i].second.dump_to(out, indent, depth + 1);
      }
      if (!members_.empty()) newline_indent(depth);
      out += '}';
      break;
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

/// Recursive-descent parser over a string_view cursor.
struct Parser {
  std::string_view s;
  std::size_t pos = 0;
  std::string error;
  int depth = 0;
  static constexpr int kMaxDepth = 128;

  bool fail(const std::string& msg) {
    if (error.empty())
      error = msg + " at offset " + std::to_string(pos);
    return false;
  }
  void skip_ws() {
    while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\t' ||
                              s[pos] == '\n' || s[pos] == '\r'))
      ++pos;
  }
  bool consume(char c) {
    skip_ws();
    if (pos < s.size() && s[pos] == c) {
      ++pos;
      return true;
    }
    return fail(std::string("expected '") + c + "'");
  }
  bool literal(std::string_view word) {
    if (s.substr(pos, word.size()) != word)
      return fail("bad literal");
    pos += word.size();
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    while (pos < s.size()) {
      const char c = s[pos];
      if (c == '"') {
        ++pos;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("raw control character in string");
      if (c == '\\') {
        if (pos + 1 >= s.size()) return fail("truncated escape");
        const char e = s[pos + 1];
        pos += 2;
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos + 4 > s.size()) return fail("truncated \\u escape");
            unsigned code = 0;
            for (int k = 0; k < 4; ++k) {
              const char h = s[pos + static_cast<std::size_t>(k)];
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad \\u escape");
            }
            pos += 4;
            // UTF-8 encode (surrogate pairs folded to U+FFFD: the
            // exporters never emit them).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: return fail("unknown escape");
        }
      } else {
        out += c;
        ++pos;
      }
    }
    return fail("unterminated string");
  }

  bool parse_value(Json& out) {
    if (++depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos >= s.size()) return fail("unexpected end of input");
    bool ok = false;
    switch (s[pos]) {
      case '{': {
        ++pos;
        out = Json::object();
        skip_ws();
        if (pos < s.size() && s[pos] == '}') {
          ++pos;
          ok = true;
          break;
        }
        for (;;) {
          std::string key;
          skip_ws();
          if (!parse_string(key)) return false;
          if (!consume(':')) return false;
          Json v;
          if (!parse_value(v)) return false;
          out[key] = std::move(v);
          skip_ws();
          if (pos < s.size() && s[pos] == ',') {
            ++pos;
            continue;
          }
          if (!consume('}')) return false;
          ok = true;
          break;
        }
        break;
      }
      case '[': {
        ++pos;
        out = Json::array();
        skip_ws();
        if (pos < s.size() && s[pos] == ']') {
          ++pos;
          ok = true;
          break;
        }
        for (;;) {
          Json v;
          if (!parse_value(v)) return false;
          out.push_back(std::move(v));
          skip_ws();
          if (pos < s.size() && s[pos] == ',') {
            ++pos;
            continue;
          }
          if (!consume(']')) return false;
          ok = true;
          break;
        }
        break;
      }
      case '"': {
        std::string str;
        if (!parse_string(str)) return false;
        out = Json(std::move(str));
        ok = true;
        break;
      }
      case 't': ok = literal("true"); out = Json(true); break;
      case 'f': ok = literal("false"); out = Json(false); break;
      case 'n': ok = literal("null"); out = Json(); break;
      default: {
        // Number.
        const std::size_t start = pos;
        if (pos < s.size() && s[pos] == '-') ++pos;
        while (pos < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[pos])) ||
                s[pos] == '.' || s[pos] == 'e' || s[pos] == 'E' ||
                s[pos] == '+' || s[pos] == '-'))
          ++pos;
        if (pos == start) return fail("unexpected character");
        const std::string text(s.substr(start, pos - start));
        char* end = nullptr;
        const double v = std::strtod(text.c_str(), &end);
        if (end != text.c_str() + text.size()) return fail("bad number");
        out = Json(v);
        ok = true;
        break;
      }
    }
    --depth;
    return ok;
  }
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text, std::string* error) {
  Parser p{text, 0, {}, 0};
  Json out;
  if (!p.parse_value(out)) {
    if (error) *error = p.error;
    return std::nullopt;
  }
  p.skip_ws();
  if (p.pos != text.size()) {
    if (error) *error = "trailing garbage at offset " + std::to_string(p.pos);
    return std::nullopt;
  }
  return out;
}

}  // namespace qfr::obs
