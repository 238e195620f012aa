#include "base/obs/json.h"

#include <algorithm>
#include <charconv>
#include <cstdio>

namespace fstg::obs {

namespace {

/// Recursive-descent reader over one document.
struct Reader {
  /// Nesting cap: the documents read here are at most five levels deep,
  /// but unbounded recursion on an untrusted `[[[[...` would overflow the
  /// stack.
  static constexpr int kMaxDepth = 64;

  explicit Reader(std::string_view t) : text(t) {}

  std::string_view text;
  std::size_t pos = 0;
  int depth = 0;
  std::string error;

  bool fail(const char* what) {
    if (error.empty())
      error = std::string(what) + " at byte " + std::to_string(pos);
    return false;
  }
  bool at(char c) const { return pos < text.size() && text[pos] == c; }
  void skip_ws() {
    while (at(' ') || at('\t') || at('\n') || at('\r')) ++pos;
  }
  bool eat(char c) {
    skip_ws();
    if (!at(c)) return false;
    ++pos;
    return true;
  }
  std::size_t digits() {
    const std::size_t from = pos;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    return pos - from;
  }
  bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) != word) return fail("expected value");
    pos += word.size();
    return true;
  }

  bool value(Json* out) {
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end");
    switch (text[pos]) {
      case '{': return container(out, Json::Kind::kObject, '}');
      case '[': return container(out, Json::Kind::kArray, ']');
      case '"':
        out->kind = Json::Kind::kString;
        return string(&out->string);
      case 't':
        out->kind = Json::Kind::kBool;
        out->boolean = true;
        return literal("true");
      case 'f':
        out->kind = Json::Kind::kBool;
        return literal("false");
      case 'n':
        return literal("null");
      default:
        out->kind = Json::Kind::kNumber;
        return number(&out->number);
    }
  }

  bool container(Json* out, Json::Kind kind, char close) {
    if (++depth > kMaxDepth) return fail("nesting too deep");
    out->kind = kind;
    ++pos;  // the opening bracket
    if (!eat(close)) {
      do {
        if (kind == Json::Kind::kObject) {
          skip_ws();
          out->keys.emplace_back();
          if (!string(&out->keys.back())) return false;
          if (!eat(':')) return fail("expected :");
        }
        out->items.emplace_back();
        if (!value(&out->items.back())) return false;
      } while (eat(','));
      if (!eat(close)) return fail("expected , or closing bracket");
    }
    --depth;
    return true;
  }

  bool string(std::string* out) {
    if (!at('"')) return fail("expected string");
    ++pos;
    for (;;) {
      if (pos >= text.size()) return fail("unterminated string");
      const char c = text[pos];
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("raw control byte in string");
      ++pos;
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos >= text.size()) return fail("unterminated escape");
      switch (text[pos++]) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': if (!unicode(out)) return false; break;
        default: return fail("unknown escape");
      }
    }
  }

  /// The four hex digits of a \u escape, appended as UTF-8.
  bool unicode(std::string* out) {
    unsigned cp = 0;
    const char* first = text.data() + pos;
    const char* last = first + std::min<std::size_t>(4, text.size() - pos);
    const auto [end, ec] = std::from_chars(first, last, cp, 16);
    if (ec != std::errc() || end != first + 4) return fail("bad \\u escape");
    pos += 4;
    // The writers here escape control bytes only, so surrogate pairs never
    // appear in their output; refuse rather than mis-decode.
    if (cp >= 0xD800 && cp <= 0xDFFF)
      return fail("unsupported surrogate \\u escape");
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
    return true;
  }

  /// RFC 8259 number: -? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?
  bool number(double* out) {
    const std::size_t start = pos;
    if (at('-')) ++pos;
    if (at('0')) ++pos;
    else if (digits() == 0) return fail("expected value");
    if (at('.')) {
      ++pos;
      if (digits() == 0) return fail("expected fraction digits");
    }
    if (at('e') || at('E')) {
      ++pos;
      if (at('+') || at('-')) ++pos;
      if (digits() == 0) return fail("expected exponent digits");
    }
    const char* last = text.data() + pos;
    const auto [end, ec] = std::from_chars(text.data() + start, last, *out);
    if (ec != std::errc() || end != last) return fail("number out of range");
    return true;
  }
};

}  // namespace

const Json* Json::find(std::string_view key) const {
  for (std::size_t i = keys.size(); i-- > 0;)
    if (keys[i] == key) return &items[i];
  return nullptr;
}

const std::string& Json::str(std::string_view key) const {
  static const std::string kEmpty;
  const Json* v = find(key);
  return v != nullptr && v->kind == Kind::kString ? v->string : kEmpty;
}

double Json::num(std::string_view key, double fallback) const {
  const Json* v = find(key);
  return v != nullptr && v->kind == Kind::kNumber ? v->number : fallback;
}

bool parse_json(std::string_view text, Json* out, std::string* error) {
  Reader r(text);
  Json doc;
  if (r.value(&doc)) {
    r.skip_ws();
    if (r.pos != text.size()) r.fail("trailing bytes after the document");
  }
  if (!r.error.empty()) {
    if (error) *error = r.error;
    return false;
  }
  *out = std::move(doc);
  return true;
}

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof hex, "\\u%04x", c);
          out += hex;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace fstg::obs
