#include "ins/name/parser.h"

#include <cctype>
#include <string>

namespace ins {

namespace {

bool IsTokenChar(char c) {
  if (std::isspace(static_cast<unsigned char>(c)) != 0) {
    return false;
  }
  switch (c) {
    case '[':
    case ']':
    case '=':
    case '<':
    case '>':
    case '*':
      return false;
    default:
      return true;
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<NameSpecifier> Parse() {
    NameSpecifier spec;
    SkipWhitespace();
    while (!AtEnd()) {
      INS_RETURN_IF_ERROR(ParsePair(&spec.mutable_roots(), 1));
      SkipWhitespace();
    }
    return spec;
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  void SkipWhitespace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek())) != 0) {
      ++pos_;
    }
  }

  Status ErrorHere(const std::string& what) const {
    return InvalidArgumentError(what + " at offset " + std::to_string(pos_));
  }

  Result<std::string> ParseToken() {
    SkipWhitespace();
    size_t start = pos_;
    while (!AtEnd() && IsTokenChar(Peek())) {
      ++pos_;
    }
    if (pos_ == start) {
      return ErrorHere("expected token");
    }
    return std::string(text_.substr(start, pos_ - start));
  }

  // Parses one bracketed av-pair, at nesting `depth`, into `siblings`.
  Status ParsePair(std::vector<AvPair>* siblings, size_t depth) {
    SkipWhitespace();
    if (AtEnd() || Peek() != '[') {
      return ErrorHere("expected '['");
    }
    if (depth > kMaxNameDepth) {
      return ErrorHere("av-pair nesting deeper than " + std::to_string(kMaxNameDepth));
    }
    ++pos_;  // consume '['

    auto attr = ParseToken();
    if (!attr.ok()) {
      return attr.status();
    }

    SkipWhitespace();
    Value value = Value::Wildcard();  // bare [attr] means any value
    if (!AtEnd() && (Peek() == '=' || Peek() == '<' || Peek() == '>')) {
      INS_ASSIGN_OR_RETURN(value, ParseValue());
    }

    if (FindPair(*siblings, *attr) != nullptr) {
      return ErrorHere("duplicate sibling attribute '" + *attr + "'");
    }
    AvPair* pair = InsertPair(*siblings, std::move(*attr), std::move(value));

    // Child av-pairs until the closing bracket.
    SkipWhitespace();
    while (!AtEnd() && Peek() == '[') {
      INS_RETURN_IF_ERROR(ParsePair(&pair->children, depth + 1));
      SkipWhitespace();
    }
    if (AtEnd() || Peek() != ']') {
      return ErrorHere("expected ']'");
    }
    ++pos_;  // consume ']'
    return Status::Ok();
  }

  Result<Value> ParseValue() {
    char op = Peek();
    ++pos_;
    if (op == '=') {
      SkipWhitespace();
      if (!AtEnd() && Peek() == '*') {
        ++pos_;
        return Value::Wildcard();
      }
      auto tok = ParseToken();
      if (!tok.ok()) {
        return tok.status();
      }
      return Value::Literal(std::move(*tok));
    }
    // Range operator: '<', '<=', '>', '>='.
    bool or_equal = false;
    if (!AtEnd() && Peek() == '=') {
      or_equal = true;
      ++pos_;
    }
    auto tok = ParseToken();
    if (!tok.ok()) {
      return tok.status();
    }
    std::optional<double> bound = ParseNumeric(*tok);
    if (!bound.has_value()) {
      return ErrorHere("range bound '" + *tok + "' is not numeric");
    }
    Value::Kind kind;
    if (op == '<') {
      kind = or_equal ? Value::Kind::kLessEqual : Value::Kind::kLess;
    } else {
      kind = or_equal ? Value::Kind::kGreaterEqual : Value::Kind::kGreater;
    }
    return Value::Range(kind, *bound);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<NameSpecifier> ParseNameSpecifier(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace ins
