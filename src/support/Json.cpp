#include "support/Json.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace afl;
using namespace afl::json;

namespace {

/// Recursive-descent reader over a string_view. Depth-capped; every
/// failure path records a message with the byte offset.
class Parser {
public:
  Parser(std::string_view Text, std::string &Error)
      : Text(Text), Error(Error) {}

  bool parse(Value &Out) {
    skipWs();
    if (!parseValue(Out, 0))
      return false;
    skipWs();
    if (Pos != Text.size())
      return fail("trailing characters after JSON value");
    return true;
  }

private:
  static constexpr int MaxDepth = 128;

  bool fail(const std::string &Msg) {
    Error = Msg + " at byte " + std::to_string(Pos);
    return false;
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool literal(std::string_view Word) {
    if (Text.compare(Pos, Word.size(), Word) != 0)
      return false;
    Pos += Word.size();
    return true;
  }

  bool parseValue(Value &Out, int Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    switch (C) {
    case '{':
      return parseObject(Out, Depth);
    case '[':
      return parseArray(Out, Depth);
    case '"': {
      std::string S;
      if (!parseString(S))
        return false;
      Out = Value::string(std::move(S));
      return true;
    }
    case 't':
      if (literal("true")) {
        Out = Value::boolean(true);
        return true;
      }
      return fail("invalid literal");
    case 'f':
      if (literal("false")) {
        Out = Value::boolean(false);
        return true;
      }
      return fail("invalid literal");
    case 'n':
      if (literal("null")) {
        Out = Value::null();
        return true;
      }
      return fail("invalid literal");
    default:
      if (C == '-' || (C >= '0' && C <= '9'))
        return parseNumber(Out);
      return fail(std::string("unexpected character '") + C + "'");
    }
  }

  bool parseObject(Value &Out, int Depth) {
    ++Pos; // '{'
    Out = Value::object();
    skipWs();
    if (Pos < Text.size() && Text[Pos] == '}') {
      ++Pos;
      return true;
    }
    for (;;) {
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != '"')
        return fail("expected object key");
      std::string Key;
      if (!parseString(Key))
        return false;
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != ':')
        return fail("expected ':' after object key");
      ++Pos;
      skipWs();
      Value V;
      if (!parseValue(V, Depth + 1))
        return false;
      Out.membersMut().emplace_back(std::move(Key), std::move(V));
      skipWs();
      if (Pos >= Text.size())
        return fail("unterminated object");
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parseArray(Value &Out, int Depth) {
    ++Pos; // '['
    Out = Value::array();
    skipWs();
    if (Pos < Text.size() && Text[Pos] == ']') {
      ++Pos;
      return true;
    }
    for (;;) {
      skipWs();
      Value V;
      if (!parseValue(V, Depth + 1))
        return false;
      Out.itemsMut().push_back(std::move(V));
      skipWs();
      if (Pos >= Text.size())
        return fail("unterminated array");
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  /// UTF-8-encodes \p Cp into \p Out (Cp validated by the caller).
  static void appendUtf8(std::string &Out, uint32_t Cp) {
    if (Cp < 0x80) {
      Out += static_cast<char>(Cp);
    } else if (Cp < 0x800) {
      Out += static_cast<char>(0xC0 | (Cp >> 6));
      Out += static_cast<char>(0x80 | (Cp & 0x3F));
    } else if (Cp < 0x10000) {
      Out += static_cast<char>(0xE0 | (Cp >> 12));
      Out += static_cast<char>(0x80 | ((Cp >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Cp & 0x3F));
    } else {
      Out += static_cast<char>(0xF0 | (Cp >> 18));
      Out += static_cast<char>(0x80 | ((Cp >> 12) & 0x3F));
      Out += static_cast<char>(0x80 | ((Cp >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Cp & 0x3F));
    }
  }

  bool parseHex4(uint32_t &Out) {
    if (Pos + 4 > Text.size())
      return fail("truncated \\u escape");
    Out = 0;
    for (int I = 0; I != 4; ++I) {
      char C = Text[Pos++];
      Out <<= 4;
      if (C >= '0' && C <= '9')
        Out |= static_cast<uint32_t>(C - '0');
      else if (C >= 'a' && C <= 'f')
        Out |= static_cast<uint32_t>(C - 'a' + 10);
      else if (C >= 'A' && C <= 'F')
        Out |= static_cast<uint32_t>(C - 'A' + 10);
      else
        return fail("invalid hex digit in \\u escape");
    }
    return true;
  }

  bool parseString(std::string &Out) {
    ++Pos; // opening quote
    Out.clear();
    while (Pos < Text.size()) {
      unsigned char C = static_cast<unsigned char>(Text[Pos]);
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (C < 0x20)
        return fail("unescaped control character in string");
      if (C != '\\') {
        Out += static_cast<char>(C);
        ++Pos;
        continue;
      }
      ++Pos; // backslash
      if (Pos >= Text.size())
        return fail("truncated escape sequence");
      char E = Text[Pos++];
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        uint32_t Cp = 0;
        if (!parseHex4(Cp))
          return false;
        // Surrogate pair: a high surrogate must be followed by \uXXXX
        // with a low surrogate; lone surrogates become U+FFFD.
        if (Cp >= 0xD800 && Cp <= 0xDBFF) {
          if (Pos + 1 < Text.size() && Text[Pos] == '\\' &&
              Text[Pos + 1] == 'u') {
            size_t Save = Pos;
            Pos += 2;
            uint32_t Lo = 0;
            if (!parseHex4(Lo))
              return false;
            if (Lo >= 0xDC00 && Lo <= 0xDFFF) {
              Cp = 0x10000 + ((Cp - 0xD800) << 10) + (Lo - 0xDC00);
            } else {
              Pos = Save;
              Cp = 0xFFFD;
            }
          } else {
            Cp = 0xFFFD;
          }
        } else if (Cp >= 0xDC00 && Cp <= 0xDFFF) {
          Cp = 0xFFFD;
        }
        appendUtf8(Out, Cp);
        break;
      }
      default:
        return fail("invalid escape sequence");
      }
    }
    return fail("unterminated string");
  }

  bool parseNumber(Value &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    if (Pos >= Text.size() || !std::isdigit(static_cast<unsigned char>(Text[Pos])))
      return fail("invalid number");
    // Leading zero may not be followed by more digits (JSON grammar).
    if (Text[Pos] == '0' && Pos + 1 < Text.size() &&
        std::isdigit(static_cast<unsigned char>(Text[Pos + 1])))
      return fail("leading zero in number");
    while (Pos < Text.size() &&
           std::isdigit(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
    bool Integral = true;
    if (Pos < Text.size() && Text[Pos] == '.') {
      Integral = false;
      ++Pos;
      if (Pos >= Text.size() ||
          !std::isdigit(static_cast<unsigned char>(Text[Pos])))
        return fail("digit expected after decimal point");
      while (Pos < Text.size() &&
             std::isdigit(static_cast<unsigned char>(Text[Pos])))
        ++Pos;
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      Integral = false;
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      if (Pos >= Text.size() ||
          !std::isdigit(static_cast<unsigned char>(Text[Pos])))
        return fail("digit expected in exponent");
      while (Pos < Text.size() &&
             std::isdigit(static_cast<unsigned char>(Text[Pos])))
        ++Pos;
    }
    std::string Tok(Text.substr(Start, Pos - Start));
    if (Integral) {
      errno = 0;
      char *End = nullptr;
      long long V = std::strtoll(Tok.c_str(), &End, 10);
      // Out-of-range literals must not silently saturate (or lose
      // precision as a double): callers use integer ids verbatim.
      if (errno == ERANGE)
        return fail("integer literal out of range");
      if (End && *End == '\0') {
        Out = Value::integer(static_cast<int64_t>(V));
        return true;
      }
    }
    errno = 0;
    char *End = nullptr;
    double D = std::strtod(Tok.c_str(), &End);
    if (!End || *End != '\0')
      return fail("invalid number");
    Out = Value::number(D);
    return true;
  }

  std::string_view Text;
  std::string &Error;
  size_t Pos = 0;
};

} // namespace

bool json::parseJson(std::string_view Text, Value &Out, std::string &Error) {
  Parser P(Text, Error);
  return P.parse(Out);
}

void json::appendString(std::string &Out, std::string_view S) {
  Out += '"';
  for (unsigned char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += static_cast<char>(C);
    } else if (C >= '\b' && C <= '\r' && C != '\v') {
      // \b \t \n \f \r have short escapes; \v (0x0b) does not.
      Out += '\\';
      Out += "btn?fr"[C - '\b'];
    } else if (C < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += static_cast<char>(C);
    }
  }
  Out += '"';
}

void Writer::newline(size_t Depth) {
  Out += '\n';
  Out.append(Depth * 2, ' ');
}

Writer &Writer::beginObject() {
  Out += '{';
  Empty.push_back(true);
  return *this;
}

Writer &Writer::endObject() {
  bool WasEmpty = Empty.back();
  Empty.pop_back();
  if (Pretty && !WasEmpty)
    newline(Empty.size());
  Out += '}';
  return *this;
}

Writer &Writer::key(std::string_view Name) {
  if (!Empty.back())
    Out += ',';
  Empty.back() = false;
  if (Pretty)
    newline(Empty.size());
  appendString(Out, Name);
  Out += Pretty ? ": " : ":";
  return *this;
}

Writer &Writer::seconds(double S) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9f", S);
  Out += Buf;
  return *this;
}
