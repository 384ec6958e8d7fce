#include "runner/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/check.h"

namespace omcast::runner {

Json& Json::Set(std::string key, Json value) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  util::Check(type_ == Type::kObject, "Json::Set on non-object");
  for (auto& [name, member] : obj_) {
    if (name == key) {
      member = std::move(value);
      return *this;
    }
  }
  obj_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::Append(Json value) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  util::Check(type_ == Type::kArray, "Json::Append on non-array");
  arr_.push_back(std::move(value));
  return *this;
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

}  // namespace omcast::runner
