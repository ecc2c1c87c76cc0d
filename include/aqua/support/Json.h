//===- aqua/support/Json.h - Minimal JSON document parser --------*- C++-*-===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small recursive-descent JSON parser producing an immutable DOM. It
/// exists so the observability tooling (trace-shard merging, `aquatop`,
/// the multi-process bench aggregation, and the tests that verify merged
/// traces) can *read back* the JSON this codebase writes without an
/// external dependency. Also the two helpers every JSON writer here uses
/// for string literals and plain numbers.
///
/// Scope: full JSON syntax (objects, arrays, strings with \uXXXX escapes
/// including surrogate pairs, numbers, booleans, null). Not streaming, not
/// fast, not a serializer -- writers in this repo emit JSON by hand, per
/// the existing Metrics/Trace exporters. Numbers are held as doubles,
/// which is exact for the 53-bit integer range; the timestamps and
/// counters we round-trip stay well inside it (and `u64()` saturates
/// instead of wrapping for anything larger).
///
//===----------------------------------------------------------------------===//

#ifndef AQUA_SUPPORT_JSON_H
#define AQUA_SUPPORT_JSON_H

#include "aqua/support/Error.h"

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace aqua::json {

/// One parsed JSON value. Values are immutable after parse; object members
/// keep document order (duplicate keys keep the last occurrence on
/// `find()`, matching common parser behaviour).
class Value {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Value() : K(Kind::Null) {}

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }

  /// Value accessors; calling the wrong one asserts.
  bool boolean() const;
  double number() const;
  const std::string &str() const;
  const std::vector<Value> &array() const;
  const std::vector<std::pair<std::string, Value>> &members() const;

  /// Object member lookup; null when this is not an object or the key is
  /// absent. Duplicate keys resolve to the last occurrence.
  const Value *find(const std::string &Key) const;

  /// Convenience: the named member's number/string, or a fallback when the
  /// member is absent or has the wrong kind.
  double numberOr(const std::string &Key, double Fallback) const;
  std::string strOr(const std::string &Key, const std::string &Fallback) const;

  /// number() clamped to [0, 2^64); non-finite and negative map to 0.
  std::uint64_t u64() const;

private:
  friend class Parser;

  Kind K;
  bool B = false;
  double Num = 0.0;
  std::string Str;
  std::vector<Value> Arr;
  std::vector<std::pair<std::string, Value>> Obj;
};

/// Parses one complete JSON document (leading/trailing whitespace allowed;
/// trailing garbage is an error).
Expected<Value> parse(std::string_view Text);

/// Appends \p S as a JSON string literal: `"` and `\` are escaped, `\n`
/// and `\t` by name and every other byte below 0x20 as `\u00XX`; all
/// other bytes are copied as they are.
void appendQuoted(std::string &Out, std::string_view S);

/// Appends \p V formatted `%.9g`. JSON has no infinity or NaN literals,
/// so those become `null`.
void appendNumber(std::string &Out, double V);

} // namespace aqua::json

#endif // AQUA_SUPPORT_JSON_H
