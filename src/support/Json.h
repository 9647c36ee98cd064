//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal JSON reader and the one JSON writer. The analysis server
/// (src/driver/Server.cpp) parses one request object per input line;
/// nothing here allocates a DOM larger than the request. No third-party
/// dependencies, no exceptions: parse errors are reported through an
/// out-parameter and malformed input can never crash the server
/// (docs/SERVER.md failure semantics).
///
/// Numbers are kept in both integer and double form: protocol fields are
/// small integers (document ids, byte offsets) read through asInt(), and
/// any JSON number round-trips through asDouble(). Integers share one
/// range, int64: the reader rejects wider literals and the writer
/// saturates wider unsigned values to INT64_MAX.
///
//===----------------------------------------------------------------------===//

#ifndef AFL_SUPPORT_JSON_H
#define AFL_SUPPORT_JSON_H

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace afl {
namespace json {

/// One parsed JSON value. Object member order is preserved (first match
/// wins on duplicate keys, like every mainstream reader).
class Value {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  /// Boolean payload (false unless isBool()).
  bool asBool() const { return K == Kind::Bool && B; }
  /// Integer payload; \p Default unless this is a number that was written
  /// without a fraction or exponent and fits an int64.
  int64_t asInt(int64_t Default = 0) const {
    return K == Kind::Number && IsInt ? Int : Default;
  }
  bool isInt() const { return K == Kind::Number && IsInt; }
  /// Numeric payload (0.0 unless isNumber()).
  double asDouble() const { return K == Kind::Number ? Num : 0.0; }
  /// String payload ("" unless isString()).
  const std::string &asString() const { return Str; }

  const std::vector<Value> &items() const { return Arr; }
  const std::vector<std::pair<std::string, Value>> &members() const {
    return Obj;
  }

  /// First member named \p Key, or nullptr (also when not an object).
  const Value *find(std::string_view Key) const {
    for (const auto &[K2, V] : Obj)
      if (K2 == Key)
        return &V;
    return nullptr;
  }

  //===------------------------------------------------------------------===//
  // Construction (used by the parser; callers normally only read).
  //===------------------------------------------------------------------===//
  static Value null() { return Value(); }
  static Value boolean(bool V) {
    Value X;
    X.K = Kind::Bool;
    X.B = V;
    return X;
  }
  static Value number(double V) {
    Value X;
    X.K = Kind::Number;
    X.Num = V;
    return X;
  }
  static Value integer(int64_t V) {
    Value X;
    X.K = Kind::Number;
    X.Num = static_cast<double>(V);
    X.Int = V;
    X.IsInt = true;
    return X;
  }
  static Value string(std::string V) {
    Value X;
    X.K = Kind::String;
    X.Str = std::move(V);
    return X;
  }
  static Value array() {
    Value X;
    X.K = Kind::Array;
    return X;
  }
  static Value object() {
    Value X;
    X.K = Kind::Object;
    return X;
  }
  std::vector<Value> &itemsMut() { return Arr; }
  std::vector<std::pair<std::string, Value>> &membersMut() { return Obj; }

private:
  Kind K = Kind::Null;
  bool B = false;
  bool IsInt = false;
  double Num = 0.0;
  int64_t Int = 0;
  std::string Str;
  std::vector<Value> Arr;
  std::vector<std::pair<std::string, Value>> Obj;
};

/// Parses \p Text as exactly one JSON value (leading/trailing whitespace
/// allowed, trailing garbage is an error). Returns false and fills
/// \p Error on malformed input; \p Out is unspecified then. Nesting depth
/// is capped so adversarial input cannot overflow the stack.
bool parseJson(std::string_view Text, Value &Out, std::string &Error);

/// Appends \p S to \p Out as a JSON string literal: quoted, with quotes,
/// backslashes and control characters escaped per RFC 8259.
void appendString(std::string &Out, std::string_view S);

/// Appends JSON objects to one caller-owned buffer; every JSON object the
/// tools emit goes through it. A member is key() followed by one value
/// call or a nested beginObject(); the writer places the commas and, in
/// pretty mode, the newlines and two-space indentation (an empty object
/// stays "{}"). Calls chain: `W.key("doc").integer(3)`.
class Writer {
public:
  explicit Writer(std::string &Out, bool Pretty = false)
      : Out(Out), Pretty(Pretty) {}

  Writer &beginObject();
  Writer &endObject();
  Writer &key(std::string_view Name);

  /// Writes \p V as a JSON integer. The reader takes integers as int64
  /// (parseJson rejects anything wider), so an unsigned value above
  /// INT64_MAX saturates to INT64_MAX: every integer written reads back.
  template <typename T> Writer &integer(T V) {
    static_assert(std::is_integral_v<T>, "integer() takes integers");
    if constexpr (std::is_unsigned_v<T>)
      if (static_cast<uint64_t>(V) > static_cast<uint64_t>(INT64_MAX))
        return integer(INT64_MAX);
    char Buf[24];
    Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
    return *this;
  }
  Writer &boolean(bool V) { return raw(V ? "true" : "false"); }
  Writer &string(std::string_view S) {
    appendString(Out, S);
    return *this;
  }
  /// Seconds in fixed point with nine decimals, so a timer always has a
  /// fractional part and never reads like a counter.
  Writer &seconds(double S);
  /// Already-rendered JSON, embedded verbatim.
  Writer &raw(std::string_view Json) {
    Out += Json;
    return *this;
  }

private:
  void newline(size_t Depth);

  std::string &Out;
  bool Pretty;
  /// One entry per open object: true until its first member.
  std::vector<bool> Empty;
};

} // namespace json
} // namespace afl

#endif // AFL_SUPPORT_JSON_H
