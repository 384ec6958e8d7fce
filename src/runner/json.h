// Minimal, dependency-free JSON document builder for the experiment
// runner's structured results (results/*.json, run manifests) and
// perfbench's report. The program only writes JSON; the validators and
// summarizers under scripts/ read it.
//
// Design constraints, in order:
//   * deterministic output -- object members keep insertion order, doubles
//     are dumped with the shortest round-trip representation (to_chars), so
//     two identical in-memory documents always serialize to identical bytes
//     (the serial-vs-parallel digest test depends on this);
//   * lossless numbers -- 64-bit seeds do not fit in a double, so numbers
//     remember whether they were built as uint64, int64 or double, and every
//     finite double dumps to a token that reads back to the same bits
//     (including -0.0). NaN/Inf dump as null (RFC 8259 has neither).
//
// tests/test_runner_json.cc pins the bytes Dump() writes.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace omcast::runner {

class Json {
 public:
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

  // Object member: appends, or overwrites an existing key in place.
  // Calling on a null value promotes it to an empty object first.
  Json& Set(std::string key, Json value);

  // Array append. Calling on a null value promotes it to an empty array
  // first, so `doc.Set("cells", Json::MakeArray())` boilerplate is optional.
  Json& Append(Json value);

  // Serializes the value. indent < 0: compact single line; indent >= 0:
  // pretty-printed with that many spaces per level.
  std::string Dump(int indent = -1) const;

 private:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  enum class NumKind { kDouble, kInt, kUint };

  void DumpTo(std::string& out, int indent, int depth) const;

  Type type_ = Type::kNull;
  NumKind num_kind_ = NumKind::kDouble;
  bool bool_ = false;
  double dbl_ = 0.0;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

}  // namespace omcast::runner
