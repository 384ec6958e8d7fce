// Minimal, dependency-free JSON value for the experiment runner's structured
// results (results/*.json, run manifests, bench_summary.json).
//
// Design constraints, in order:
//   * deterministic output -- object members keep insertion order, doubles
//     are dumped with the shortest round-trip representation (to_chars), so
//     two identical in-memory documents always serialize to identical bytes
//     (the serial-vs-parallel digest test depends on this);
//   * lossless integers -- 64-bit seeds do not fit in a double, so numbers
//     remember whether they were parsed/built as uint64, int64 or double;
//   * exact round trips -- Parse() reads a dumped document back to the same
//     values, which is how the tests check Dump() and the trace exports.
//
// Not a general-purpose JSON library: no comments, no trailing commas, no
// \u surrogate pairs beyond the BMP, numbers must be finite (NaN/Inf are
// serialized as null, matching RFC 8259's lack of them).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace omcast::runner {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Member = std::pair<std::string, Json>;
  using Array = std::vector<Json>;
  using Object = std::vector<Member>;

  Json() = default;                      // null
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double v) : type_(Type::kNumber), num_kind_(NumKind::kDouble), dbl_(v) {}
  Json(std::int64_t v) : type_(Type::kNumber), num_kind_(NumKind::kInt), int_(v) {}
  Json(std::uint64_t v)
      : type_(Type::kNumber), num_kind_(NumKind::kUint), uint_(v) {}
  Json(int v) : Json(static_cast<std::int64_t>(v)) {}
  Json(const char* s) : type_(Type::kString), str_(s) {}
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}

  static Json MakeArray() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json MakeObject() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  // Typed reads; abort (util::Fail) on a type mismatch -- results files are
  // produced by this code, so a mismatch is a schema bug, not bad input.
  bool AsBool() const;
  double AsDouble() const;  // any number kind, converted
  std::int64_t AsInt() const;
  std::uint64_t AsUint() const;
  const std::string& AsString() const;
  const Array& AsArray() const;
  const Object& AsObject() const;

  // Object access. `Set` appends or overwrites; `Find` returns nullptr when
  // the key is absent (the tests probe optional fields with it).
  Json& Set(std::string key, Json value);
  const Json* Find(std::string_view key) const;

  // Array append. Calling on a null value promotes it to an empty array
  // first, so `doc.Set("cells", Json::MakeArray())` boilerplate is optional.
  Json& Append(Json value);

  std::size_t size() const;  // array/object element count, 0 otherwise

  // Serializes the value. indent < 0: compact single line; indent >= 0:
  // pretty-printed with that many spaces per level.
  std::string Dump(int indent = -1) const;

  // Parses `text`; on failure returns null and, if `error` is non-null,
  // stores a message with the byte offset of the problem.
  static Json Parse(std::string_view text, std::string* error = nullptr);

 private:
  enum class NumKind { kDouble, kInt, kUint };

  void DumpTo(std::string& out, int indent, int depth) const;

  Type type_ = Type::kNull;
  NumKind num_kind_ = NumKind::kDouble;
  bool bool_ = false;
  double dbl_ = 0.0;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  std::string str_;
  Array arr_;
  Object obj_;
};

}  // namespace omcast::runner
