#include "runner/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/check.h"

namespace omcast::runner {

bool Json::AsBool() const {
  util::Check(type_ == Type::kBool, "Json::AsBool on non-bool");
  return bool_;
}

double Json::AsDouble() const {
  util::Check(type_ == Type::kNumber, "Json::AsDouble on non-number");
  switch (num_kind_) {
    case NumKind::kDouble: return dbl_;
    case NumKind::kInt: return static_cast<double>(int_);
    case NumKind::kUint: return static_cast<double>(uint_);
  }
  return 0.0;
}

std::int64_t Json::AsInt() const {
  util::Check(type_ == Type::kNumber, "Json::AsInt on non-number");
  switch (num_kind_) {
    case NumKind::kDouble: return static_cast<std::int64_t>(dbl_);
    case NumKind::kInt: return int_;
    case NumKind::kUint: return static_cast<std::int64_t>(uint_);
  }
  return 0;
}

std::uint64_t Json::AsUint() const {
  util::Check(type_ == Type::kNumber, "Json::AsUint on non-number");
  switch (num_kind_) {
    case NumKind::kDouble: return static_cast<std::uint64_t>(dbl_);
    case NumKind::kInt: return static_cast<std::uint64_t>(int_);
    case NumKind::kUint: return uint_;
  }
  return 0;
}

const std::string& Json::AsString() const {
  util::Check(type_ == Type::kString, "Json::AsString on non-string");
  return str_;
}

const Json::Array& Json::AsArray() const {
  util::Check(type_ == Type::kArray, "Json::AsArray on non-array");
  return arr_;
}

const Json::Object& Json::AsObject() const {
  util::Check(type_ == Type::kObject, "Json::AsObject on non-object");
  return obj_;
}

Json& Json::Set(std::string key, Json value) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  util::Check(type_ == Type::kObject, "Json::Set on non-object");
  for (Member& m : obj_) {
    if (m.first == key) {
      m.second = std::move(value);
      return *this;
    }
  }
  obj_.emplace_back(std::move(key), std::move(value));
  return *this;
}

const Json* Json::Find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const Member& m : obj_)
    if (m.first == key) return &m.second;
  return nullptr;
}

Json& Json::Append(Json value) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  util::Check(type_ == Type::kArray, "Json::Append on non-array");
  arr_.push_back(std::move(value));
  return *this;
}

std::size_t Json::size() const {
  if (type_ == Type::kArray) return arr_.size();
  if (type_ == Type::kObject) return obj_.size();
  return 0;
}

namespace {

void AppendEscaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
}

// Shortest round-trip double representation: deterministic across runs and
// parses back to the exact same bits, which keeps the results files exact
// and the serial-vs-parallel digest comparison honest.
void AppendDouble(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

void AppendNewlineIndent(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth),
             ' ');
}

}  // namespace

void Json::DumpTo(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull: out += "null"; return;
    case Type::kBool: out += bool_ ? "true" : "false"; return;
    case Type::kNumber:
      switch (num_kind_) {
        case NumKind::kDouble: AppendDouble(out, dbl_); return;
        case NumKind::kInt: out += std::to_string(int_); return;
        case NumKind::kUint: out += std::to_string(uint_); return;
      }
      return;
    case Type::kString: AppendEscaped(out, str_); return;
    case Type::kArray: {
      if (arr_.empty()) {
        out += "[]";
        return;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i > 0) out.push_back(',');
        AppendNewlineIndent(out, indent, depth + 1);
        arr_[i].DumpTo(out, indent, depth + 1);
      }
      AppendNewlineIndent(out, indent, depth);
      out.push_back(']');
      return;
    }
    case Type::kObject: {
      if (obj_.empty()) {
        out += "{}";
        return;
      }
      out.push_back('{');
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i > 0) out.push_back(',');
        AppendNewlineIndent(out, indent, depth + 1);
        AppendEscaped(out, obj_[i].first);
        out.push_back(':');
        if (indent >= 0) out.push_back(' ');
        obj_[i].second.DumpTo(out, indent, depth + 1);
      }
      AppendNewlineIndent(out, indent, depth);
      out.push_back('}');
      return;
    }
  }
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  Json Parse() {
    Json v = ParseValue();
    if (failed_) return Json();
    SkipWs();
    if (pos_ != text_.size()) {
      Fail("trailing characters after value");
      return Json();
    }
    return v;
  }

  bool failed() const { return failed_; }

 private:
  void Fail(const std::string& msg) {
    if (!failed_ && error_ != nullptr)
      *error_ = msg + " at offset " + std::to_string(pos_);
    failed_ = true;
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
        ++pos_;
      else
        break;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view w) {
    if (text_.substr(pos_, w.size()) == w) {
      pos_ += w.size();
      return true;
    }
    return false;
  }

  Json ParseValue() {
    SkipWs();
    if (pos_ >= text_.size()) {
      Fail("unexpected end of input");
      return Json();
    }
    const char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return Json(ParseString());
    if (ConsumeWord("true")) return Json(true);
    if (ConsumeWord("false")) return Json(false);
    if (ConsumeWord("null")) return Json();
    if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber();
    Fail("unexpected character");
    return Json();
  }

  std::string ParseString() {
    std::string out;
    if (!Consume('"')) {
      Fail("expected '\"'");
      return out;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char e = text_[pos_++];
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
          if (pos_ + 4 > text_.size()) {
            Fail("truncated \\u escape");
            return out;
          }
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9')
              cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              cp |= static_cast<unsigned>(h - 'A' + 10);
            else {
              Fail("bad hex digit in \\u escape");
              return out;
            }
          }
          // UTF-8 encode (BMP only; our writer never emits surrogates).
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default: Fail("bad escape character"); return out;
      }
    }
    Fail("unterminated string");
    return out;
  }

  Json ParseNumber() {
    const std::size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
      ++pos_;
    bool is_integer = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_integer = false;
      ++pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_integer = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (tok.empty() || tok == "-") {
      Fail("malformed number");
      return Json();
    }
    if (is_integer) {
      // "-0" must stay a double: to_chars prints -0.0 without a fraction,
      // and an int64 round-trip would drop the sign bit.
      if (tok == "-0") return Json(-0.0);
      if (tok[0] == '-') {
        std::int64_t v = 0;
        const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), v);
        if (res.ec == std::errc() && res.ptr == tok.data() + tok.size())
          return Json(v);
      } else {
        std::uint64_t v = 0;
        const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), v);
        if (res.ec == std::errc() && res.ptr == tok.data() + tok.size())
          return Json(v);
      }
      // Out-of-range integer literal: fall through to double.
    }
    double d = 0.0;
    const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), d);
    if (res.ec != std::errc() || res.ptr != tok.data() + tok.size()) {
      Fail("malformed number");
      return Json();
    }
    return Json(d);
  }

  Json ParseArray() {
    Json out = Json::MakeArray();
    Consume('[');
    SkipWs();
    if (Consume(']')) return out;
    while (true) {
      out.Append(ParseValue());
      if (failed_) return Json();
      SkipWs();
      if (Consume(']')) return out;
      if (!Consume(',')) {
        Fail("expected ',' or ']' in array");
        return Json();
      }
    }
  }

  Json ParseObject() {
    Json out = Json::MakeObject();
    Consume('{');
    SkipWs();
    if (Consume('}')) return out;
    while (true) {
      SkipWs();
      std::string key = ParseString();
      if (failed_) return Json();
      SkipWs();
      if (!Consume(':')) {
        Fail("expected ':' in object");
        return Json();
      }
      out.Set(std::move(key), ParseValue());
      if (failed_) return Json();
      SkipWs();
      if (Consume('}')) return out;
      if (!Consume(',')) {
        Fail("expected ',' or '}' in object");
        return Json();
      }
    }
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace

Json Json::Parse(std::string_view text, std::string* error) {
  Parser p(text, error);
  Json v = p.Parse();
  if (p.failed()) return Json();
  return v;
}

}  // namespace omcast::runner
