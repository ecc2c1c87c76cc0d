//===- Json.cpp - Minimal JSON document parser ----------------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/support/Json.h"

#include "aqua/support/StringUtils.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

using namespace aqua;
using namespace aqua::json;

bool Value::boolean() const {
  assert(K == Kind::Bool && "boolean() on non-bool");
  return B;
}

double Value::number() const {
  assert(K == Kind::Number && "number() on non-number");
  return Num;
}

const std::string &Value::str() const {
  assert(K == Kind::String && "str() on non-string");
  return Str;
}

const std::vector<Value> &Value::array() const {
  assert(K == Kind::Array && "array() on non-array");
  return Arr;
}

const std::vector<std::pair<std::string, Value>> &Value::members() const {
  assert(K == Kind::Object && "members() on non-object");
  return Obj;
}

const Value *Value::find(const std::string &Key) const {
  if (K != Kind::Object)
    return nullptr;
  const Value *Found = nullptr;
  for (const auto &[Name, V] : Obj)
    if (Name == Key)
      Found = &V;
  return Found;
}

double Value::numberOr(const std::string &Key, double Fallback) const {
  const Value *V = find(Key);
  return V && V->K == Kind::Number ? V->Num : Fallback;
}

std::string Value::strOr(const std::string &Key,
                         const std::string &Fallback) const {
  const Value *V = find(Key);
  return V && V->K == Kind::String ? V->Str : Fallback;
}

std::uint64_t Value::u64() const {
  double V = number();
  if (!(V > 0))
    return 0;
  if (V >= 18446744073709551615.0)
    return std::numeric_limits<std::uint64_t>::max();
  return static_cast<std::uint64_t>(V);
}

namespace aqua::json {

/// Recursive-descent parser over the document text. Depth-limited so a
/// hostile deeply nested document cannot blow the stack.
class Parser {
public:
  explicit Parser(std::string_view Text) : Text(Text) {}

  Expected<Value> run() {
    skipWs();
    Value Root;
    if (Status S = parseValue(Root, 0); !S.ok())
      return S;
    skipWs();
    if (Pos != Text.size())
      return fail("trailing characters after document");
    return Root;
  }

private:
  static constexpr int MaxDepth = 200;

  std::string_view Text;
  std::size_t Pos = 0;

  Status fail(const std::string &Why) const {
    return Status::error(format("json: %s at offset %zu", Why.c_str(), Pos));
  }

  void skipWs() {
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C != ' ' && C != '\t' && C != '\n' && C != '\r')
        break;
      ++Pos;
    }
  }

  bool consume(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool consumeWord(std::string_view W) {
    if (Text.substr(Pos, W.size()) != W)
      return false;
    Pos += W.size();
    return true;
  }

  Status parseValue(Value &Out, int Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    if (Pos >= Text.size())
      return fail("unexpected end of document");
    switch (Text[Pos]) {
    case '{':
      return parseObject(Out, Depth);
    case '[':
      return parseArray(Out, Depth);
    case '"':
      Out.K = Value::Kind::String;
      return parseString(Out.Str);
    case 't':
      if (!consumeWord("true"))
        return fail("bad literal");
      Out.K = Value::Kind::Bool;
      Out.B = true;
      return Status::success();
    case 'f':
      if (!consumeWord("false"))
        return fail("bad literal");
      Out.K = Value::Kind::Bool;
      Out.B = false;
      return Status::success();
    case 'n':
      if (!consumeWord("null"))
        return fail("bad literal");
      Out.K = Value::Kind::Null;
      return Status::success();
    default:
      return parseNumber(Out);
    }
  }

  Status parseObject(Value &Out, int Depth) {
    Out.K = Value::Kind::Object;
    ++Pos; // '{'
    skipWs();
    if (consume('}'))
      return Status::success();
    for (;;) {
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != '"')
        return fail("expected object key");
      std::string Key;
      if (Status S = parseString(Key); !S.ok())
        return S;
      skipWs();
      if (!consume(':'))
        return fail("expected ':'");
      skipWs();
      Value Member;
      if (Status S = parseValue(Member, Depth + 1); !S.ok())
        return S;
      Out.Obj.emplace_back(std::move(Key), std::move(Member));
      skipWs();
      if (consume(','))
        continue;
      if (consume('}'))
        return Status::success();
      return fail("expected ',' or '}'");
    }
  }

  Status parseArray(Value &Out, int Depth) {
    Out.K = Value::Kind::Array;
    ++Pos; // '['
    skipWs();
    if (consume(']'))
      return Status::success();
    for (;;) {
      skipWs();
      Value Element;
      if (Status S = parseValue(Element, Depth + 1); !S.ok())
        return S;
      Out.Arr.push_back(std::move(Element));
      skipWs();
      if (consume(','))
        continue;
      if (consume(']'))
        return Status::success();
      return fail("expected ',' or ']'");
    }
  }

  /// Appends \p Cp to \p Out as UTF-8.
  static void appendUtf8(std::string &Out, unsigned Cp) {
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

  bool parseHex4(unsigned &Out) {
    if (Pos + 4 > Text.size())
      return false;
    Out = 0;
    for (int I = 0; I < 4; ++I) {
      char C = Text[Pos + I];
      unsigned D;
      if (C >= '0' && C <= '9')
        D = C - '0';
      else if (C >= 'a' && C <= 'f')
        D = C - 'a' + 10;
      else if (C >= 'A' && C <= 'F')
        D = C - 'A' + 10;
      else
        return false;
      Out = (Out << 4) | D;
    }
    Pos += 4;
    return true;
  }

  Status parseString(std::string &Out) {
    ++Pos; // '"'
    Out.clear();
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return Status::success();
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        break;
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
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
        unsigned Cp;
        if (!parseHex4(Cp))
          return fail("bad \\u escape");
        // Surrogate pair: a high surrogate must be followed by \uDC00..
        if (Cp >= 0xD800 && Cp <= 0xDBFF && Pos + 1 < Text.size() &&
            Text[Pos] == '\\' && Text[Pos + 1] == 'u') {
          std::size_t Save = Pos;
          Pos += 2;
          unsigned Lo;
          if (parseHex4(Lo) && Lo >= 0xDC00 && Lo <= 0xDFFF)
            Cp = 0x10000 + ((Cp - 0xD800) << 10) + (Lo - 0xDC00);
          else
            Pos = Save; // Unpaired: emit the high surrogate as-is.
        }
        appendUtf8(Out, Cp);
        break;
      }
      default:
        return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  Status parseNumber(Value &Out) {
    std::size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    auto Digits = [&] {
      std::size_t N = 0;
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9') {
        ++Pos;
        ++N;
      }
      return N;
    };
    if (!Digits())
      return fail("expected value");
    if (Pos < Text.size() && Text[Pos] == '.') {
      ++Pos;
      if (!Digits())
        return fail("expected digits after '.'");
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      if (!Digits())
        return fail("expected exponent digits");
    }
    std::string Lexeme(Text.substr(Start, Pos - Start));
    Out.K = Value::Kind::Number;
    Out.Num = std::strtod(Lexeme.c_str(), nullptr);
    return Status::success();
  }
};

} // namespace aqua::json

Expected<Value> aqua::json::parse(std::string_view Text) {
  return Parser(Text).run();
}

void aqua::json::appendQuoted(std::string &Out, std::string_view S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
}

void aqua::json::appendNumber(std::string &Out, double V) {
  if (!std::isfinite(V)) {
    Out += "null";
    return;
  }
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  Out += Buf;
}
